package serve

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/serialize"
)

// TestCheckpointStoreReplacesWholeFiles: a checkpoint on disk is replaced
// whole or not at all. A write that succeeds leaves no temp file behind;
// one whose temp file cannot be written fails and leaves the previous
// checkpoint on disk and to a restart's recovery read.
func TestCheckpointStoreReplacesWholeFiles(t *testing.T) {
	dir := t.TempDir()
	state := func(seq uint64) []byte {
		h := serialize.StateHeader{Model: "m", Algo: "bnopt", Kind: "k", Seq: seq}
		var buf bytes.Buffer
		if err := serialize.SaveState(&buf, h, []serialize.Tensor{{Name: "t", Data: []float32{float32(seq)}}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	path := ckptPath(dir, "sess")
	b1 := state(1)
	if err := replaceFile(path, b1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("a successful write left its temp file behind (stat: %v)", err)
	}

	// A directory where the temp file goes makes the next write fail.
	if err := os.MkdirAll(filepath.Join(path+".tmp", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := replaceFile(path, state(2)); err == nil {
		t.Fatal("a write whose temp file cannot be written reported success")
	}
	if disk, err := os.ReadFile(path); err != nil || !bytes.Equal(disk, b1) {
		t.Fatalf("a failed write changed the checkpoint on disk (read: %v)", err)
	}
	if h, _, ok := readCheckpoint(path); !ok || h.Seq != 1 {
		t.Fatalf("recovery after a failed write found %+v (parsed: %v), want the checkpoint at seq 1", h, ok)
	}
}

// TestCheckpointDirIsTheSwitch: Checkpoint.Dir turns checkpointing on and
// Every only sets its cadence. Without a Dir no path could read a
// checkpoint back, so none is written; with a Dir and no Every, a named
// session is checkpointed every 8 applied batches.
func TestCheckpointDirIsTheSwitch(t *testing.T) {
	inputs := genBatches(37, 32, 4, data.Fog, 3)
	for _, tc := range []struct {
		name   string
		ckpt   CheckpointConfig
		writes int
	}{
		{"every-2-no-dir", CheckpointConfig{Every: 2}, 0},
		{"dir-default-every", CheckpointConfig{Dir: t.TempDir()}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{QueueCap: 8, Checkpoint: tc.ckpt})
			defer srv.Close()
			key, err := srv.AddGroup(testModel(), core.BNNorm, core.Config{}, 1)
			if err != nil {
				t.Fatalf("AddGroup: %v", err)
			}
			st, _, err := srv.OpenSession(key, "sess")
			if err != nil {
				t.Fatalf("OpenSession: %v", err)
			}
			for b, x := range inputs {
				if _, err := st.ProcessSeq(context.Background(), x, uint64(b+1)); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
			}
			s, _ := srv.GroupSnapshot(key)
			if s.CheckpointWrites != tc.writes || s.CheckpointFailures != 0 {
				t.Errorf("checkpoint writes/failures over %d batches = %d/%d, want %d/0",
					len(inputs), s.CheckpointWrites, s.CheckpointFailures, tc.writes)
			}
			if names := srv.CheckpointedSessions(); len(names) != tc.writes {
				t.Errorf("CheckpointedSessions = %v, want %d", names, tc.writes)
			}
		})
	}
}

// TestUnparseableCheckpointStartsFresh: a checkpoint file that does not
// parse is no recovery point. Server.Stream refuses the name's token with
// CodeNoGroup, and OpenSession starts the session fresh.
func TestUnparseableCheckpointStartsFresh(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(ckptPath(dir, "sess"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{QueueCap: 8, Checkpoint: CheckpointConfig{Every: 2, Dir: dir}})
	defer srv.Close()
	key, err := srv.AddGroup(testModel(), core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	_, err = srv.Stream(sessionToken("sess"))
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeNoGroup {
		t.Fatalf("Stream over an unparseable checkpoint: err = %v, want CodeNoGroup", err)
	}
	st, resumed, err := srv.OpenSession(key, "sess")
	if err != nil || resumed {
		t.Fatalf("OpenSession over an unparseable checkpoint: resumed = %v, err = %v; want a fresh session", resumed, err)
	}
	if got := st.Snapshot().AppliedSeq; got != 0 {
		t.Errorf("fresh session AppliedSeq = %d, want 0", got)
	}
	st.Close()
}

// TestClosedSessionIsNotResumed: a session name owns its checkpoint file.
// Close deletes the file before it releases the name, and open reserves
// the name before it reads the file, so an OpenSession racing a Close
// either finds the name still open or starts fresh: it never resumes the
// episode its client closed.
func TestClosedSessionIsNotResumed(t *testing.T) {
	x := genBatches(31, 4, 4, data.Fog, 3)[0]
	srv := New(Config{QueueCap: 8, Checkpoint: CheckpointConfig{Every: 1, Dir: t.TempDir()}})
	defer srv.Close()
	key, err := srv.AddGroup(testModel(), core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	resumes := 0
	const rounds = 50
	for round := 0; round < rounds; round++ {
		st, _, err := srv.OpenSession(key, "sess")
		if err != nil {
			t.Fatalf("round %d: OpenSession: %v", round, err)
		}
		if _, err := st.ProcessSeq(context.Background(), x, 1); err != nil {
			t.Fatalf("round %d: ProcessSeq: %v", round, err)
		}
		closed := make(chan struct{})
		go func() {
			st.Close()
			close(closed)
		}()
		for {
			re, resumed, err := srv.OpenSession(key, "sess")
			var se *Error
			if errors.As(err, &se) && se.Code == CodeBadRequest {
				continue // the name is still open
			}
			if err != nil {
				t.Fatalf("round %d: reopen: %v", round, err)
			}
			if resumed {
				resumes++
			}
			<-closed
			re.Close()
			break
		}
	}
	if resumes > 0 {
		t.Fatalf("%d of %d reopens racing a Close resumed the closed episode", resumes, rounds)
	}
}
