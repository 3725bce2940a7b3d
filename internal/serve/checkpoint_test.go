package serve

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"edgetta/internal/serialize"
)

// TestCheckpointStoreReplacesWholeFiles: a checkpoint on disk is replaced
// whole or not at all. A put that succeeds leaves no temp file behind; one
// whose temp file cannot be written fails and leaves the previous
// checkpoint in memory, on disk and to a restart's recovery scan.
func TestCheckpointStoreReplacesWholeFiles(t *testing.T) {
	dir := t.TempDir()
	state := func(seq uint64) (serialize.StateHeader, []byte) {
		h := serialize.StateHeader{Model: "m", Algo: "bnopt", Kind: "k", Seq: seq}
		var buf bytes.Buffer
		if err := serialize.SaveState(&buf, h, []serialize.Tensor{{Name: "t", Data: []float32{float32(seq)}}}); err != nil {
			t.Fatal(err)
		}
		return h, buf.Bytes()
	}
	s := newCkptStore(dir)
	h1, b1 := state(1)
	if err := s.put("sess", h1, b1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, hex.EncodeToString([]byte("sess"))+".ckpt")
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("a successful put left its temp file behind (stat: %v)", err)
	}

	// A directory where the temp file goes makes the next write fail.
	if err := os.MkdirAll(filepath.Join(path+".tmp", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	h2, b2 := state(2)
	if err := s.put("sess", h2, b2); err == nil {
		t.Fatal("a put whose temp file cannot be written reported success")
	}
	if e := s.get("sess"); e == nil || e.header.Seq != 1 {
		t.Fatalf("a failed put changed the checkpoint in memory: %+v", e)
	}
	if disk, err := os.ReadFile(path); err != nil || !bytes.Equal(disk, b1) {
		t.Fatalf("a failed put changed the checkpoint on disk (read: %v)", err)
	}
	if e := newCkptStore(dir).get("sess"); e == nil || e.header.Seq != 1 {
		t.Fatalf("recovery after a failed put found %+v, want the checkpoint at seq 1", e)
	}
}
