package serve

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"edgetta/internal/core"
	"edgetta/internal/serialize"
)

// Adapter checkpoint & session recovery. A named stateful stream (an
// OpenSession stream) has its adaptation state checkpointed every
// Checkpoint.Every applied batches: the state is flattened
// (core.FlattenState) into the serialize state container together with the
// stream's routing and last applied sequence number, and kept in an
// in-memory store with an optional on-disk spill. Recovery reads it back:
// OpenSession with a known name resumes mid-episode (same process — e.g.
// after a replica fault tore the session's client down), and a new server
// pointed at the same directory (ttaserve -recover) resumes sessions from
// disk after a restart. A resumed session replays byte-identically to the
// original run truncated at the checkpoint — state flattening is exact and
// Process is deterministic — which is the recovery parity contract pinned
// by the tests.

// CheckpointConfig tunes per-session adaptation-state checkpointing.
type CheckpointConfig struct {
	// Every is the checkpoint cadence in applied batches per named
	// stateful stream; 0 disables checkpointing.
	Every int
	// Dir, when non-empty, spills every checkpoint to
	// Dir/<hex(session)>.ckpt (atomic rename) and is scanned for existing
	// checkpoints at server construction — the restart recovery path.
	// Empty keeps checkpoints in memory only.
	Dir string
}

func (c CheckpointConfig) enabled() bool { return c.Every > 0 || c.Dir != "" }

// ckptEntry is one session's latest checkpoint: the raw state container
// plus the decoded header for routing without a reparse.
type ckptEntry struct {
	header serialize.StateHeader
	blob   []byte
}

// ckptStore is the server-wide checkpoint store: session name → latest
// checkpoint, mirrored to the spill directory when configured. Its mutex
// covers only map access and file I/O for one put/remove — never the group
// lock, so checkpointing cannot stall dispatch of other streams.
type ckptStore struct {
	dir string
	mu  sync.Mutex
	mem map[string]*ckptEntry
}

func newCkptStore(dir string) *ckptStore {
	s := &ckptStore{dir: dir, mem: make(map[string]*ckptEntry)}
	if dir == "" {
		return s
	}
	os.MkdirAll(dir, 0o755)
	// Restart recovery: adopt whatever valid checkpoints the directory
	// holds. Unreadable or corrupt files are skipped — recovery salvages
	// what it can rather than refusing to start.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return s
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".ckpt")
		if !ok || e.IsDir() {
			continue
		}
		raw, err := hex.DecodeString(name)
		if err != nil {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		h, _, err := serialize.LoadState(bytes.NewReader(blob))
		if err != nil {
			continue
		}
		s.mem[string(raw)] = &ckptEntry{header: h, blob: blob}
	}
	return s
}

// put stores a session's latest checkpoint, spilling to disk when
// configured. The disk write is atomic (temp file + rename), and a failed
// write leaves the previous checkpoint — memory and disk — in place.
func (s *ckptStore) put(name string, h serialize.StateHeader, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir != "" {
		if err := replaceFile(filepath.Join(s.dir, hex.EncodeToString([]byte(name))+".ckpt"), blob); err != nil {
			return err
		}
	}
	s.mem[name] = &ckptEntry{header: h, blob: blob}
	return nil
}

// replaceFile writes blob to path + ".tmp", syncs it and renames it over
// path. The sync comes before the rename: without it a power loss can
// leave the rename on disk and the data not, an empty checkpoint that
// recovery skips. On failure the temp file is removed and path is as it
// was.
func replaceFile(path string, blob []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(blob)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// get returns the session's latest checkpoint, or nil.
func (s *ckptStore) get(name string) *ckptEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem[name]
}

// remove drops a session's checkpoint from memory and disk.
func (s *ckptStore) remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.mem, name)
	if s.dir != "" {
		os.Remove(filepath.Join(s.dir, hex.EncodeToString([]byte(name))+".ckpt"))
	}
}

// names lists the sessions with a stored checkpoint.
func (s *ckptStore) names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.mem))
	for n := range s.mem {
		out = append(out, n)
	}
	return out
}

// writeCheckpoint flattens state and stores it as the session's latest
// checkpoint. Called by the committing worker while it still holds the
// stream's in-flight gate (never the group lock), so writes for one
// session are naturally ordered.
func (g *group) writeCheckpoint(name string, state *core.AdapterState, seq uint64) error {
	if inj := g.cfg.Injector; inj != nil {
		if err := inj.CheckpointFault(name, seq); err != nil {
			return err
		}
	}
	kind, tensors, err := core.FlattenState(state)
	if err != nil {
		return err
	}
	h := serialize.StateHeader{Model: g.key.ModelTag, Algo: g.key.Algo.String(), Kind: kind, Seq: seq}
	var buf bytes.Buffer
	if err := serialize.SaveState(&buf, h, tensors); err != nil {
		return err
	}
	return g.store.put(name, h, buf.Bytes())
}

// resumeState decodes and validates a checkpoint against the group: the
// routing must match and the tensors must be exactly the ones the group's
// state layout generates (same architecture, same algorithm, same format),
// so a stale or foreign checkpoint fails loudly instead of mis-restoring.
func (g *group) resumeState(e *ckptEntry) (*core.AdapterState, uint64, error) {
	if e.header.Model != g.key.ModelTag || e.header.Algo != g.key.Algo.String() {
		return nil, 0, errBadRequest("%s: checkpoint belongs to %s/%s",
			g.key, e.header.Model, e.header.Algo)
	}
	h, tensors, err := serialize.LoadState(bytes.NewReader(e.blob))
	if err != nil {
		return nil, 0, errBadRequest("%s: corrupt checkpoint: %v", g.key, err)
	}
	state, err := core.UnflattenState(g.initial, h.Kind, tensors)
	if err != nil {
		return nil, 0, errBadRequest("%s: checkpoint: %v", g.key, err)
	}
	return state, h.Seq, nil
}

// OpenSession opens a named, recoverable stream in the group. If the
// server's checkpoint store holds a checkpoint for the name (written by a
// previous stream of this name, possibly in a previous process when
// Checkpoint.Dir is set), the session resumes from it: the stream's state
// and sequence position continue where the checkpoint left off, and the
// returned resumed flag is true. Session names must be unique among open
// streams of the group.
func (s *Server) OpenSession(key GroupKey, name string) (*Stream, bool, error) {
	if name == "" {
		return nil, false, errBadRequest("empty session name")
	}
	g, err := s.group(key)
	if err != nil {
		return nil, false, err
	}
	return g.open(name)
}

// ResumeSession reopens a checkpointed session by name alone, deriving the
// group from the checkpoint's routing header — the path the HTTP front-end
// takes when a request arrives for a session token it does not know (the
// process restarted under the client). Fails with CodeNoGroup when no
// checkpoint exists or its group is not registered.
func (s *Server) ResumeSession(name string) (*Stream, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if s.store == nil {
		return nil, &Error{Code: CodeNoGroup, Msg: "serve: checkpointing disabled, cannot resume sessions"}
	}
	e := s.store.get(name)
	if e == nil {
		return nil, &Error{Code: CodeNoGroup, Msg: fmt.Sprintf("no checkpoint for session %q", name)}
	}
	algo, err := core.ParseAlgorithm(e.header.Algo)
	if err != nil {
		return nil, errBadRequest("checkpoint for session %q: %v", name, err)
	}
	key := GroupKey{Algo: algo, ModelTag: e.header.Model}
	st, resumed, err := s.OpenSession(key, name)
	if err != nil {
		return nil, err
	}
	if !resumed {
		// The store had an entry but the group discarded it; treat as not
		// recoverable rather than silently starting a fresh episode.
		st.Close()
		return nil, &Error{Code: CodeNoGroup, Msg: fmt.Sprintf("session %q checkpoint not resumable", name)}
	}
	return st, nil
}

// CheckpointedSessions lists the session names with a stored checkpoint —
// operational introspection for the recovery path.
func (s *Server) CheckpointedSessions() []string {
	if s.store == nil {
		return nil
	}
	return s.store.names()
}
