package serve

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"

	"edgetta/internal/core"
	"edgetta/internal/serialize"
)

// Adapter checkpoint & session recovery. On a server with a
// Checkpoint.Dir, a named stateful stream (an OpenSession stream) has its
// adaptation state checkpointed every Checkpoint.Every applied batches: the
// state is flattened (core.FlattenState) into the serialize state container
// together with the stream's routing and last applied sequence number, and
// written whole over Dir/<hex(name)>.ckpt. That file is the checkpoint's
// only copy. Opening the name, or looking up its token (Server.Stream),
// reads it back: the session resumes mid-episode, in the same process or
// in a new one pointed at the same directory (ttaserve -recover). A
// resumed session replays byte-identically to the original run truncated
// at the checkpoint — state flattening is exact and Process is
// deterministic — which is the recovery parity contract pinned by the
// tests.
//
// The session name owns its file: names are unique server-wide, the
// server's session table reserves the name's token before the file is
// read, and Close deletes the file before the token is released, so no
// reopen can resume an episode its client closed.

// CheckpointConfig tunes per-session adaptation-state checkpointing.
type CheckpointConfig struct {
	// Every is the checkpoint cadence in applied batches per named
	// stateful stream. Default 8.
	Every int
	// Dir holds one checkpoint file per named session,
	// Dir/<hex(session)>.ckpt, replaced whole (atomic rename) at each write
	// and read when the name is opened — also by a new server after a
	// restart. Empty disables checkpointing.
	Dir string
}

// ckptPath is the named session's checkpoint file in dir.
func ckptPath(dir, name string) string {
	return filepath.Join(dir, hex.EncodeToString([]byte(name))+".ckpt")
}

// ckptFile is the checkpoint file of a group's named stream, or "" when it
// keeps none: an anonymous stream, a stateless group, or no Dir.
func (g *group) ckptFile(name string) string {
	if name == "" || !g.stateful || g.cfg.Checkpoint.Dir == "" {
		return ""
	}
	return ckptPath(g.cfg.Checkpoint.Dir, name)
}

// readCheckpoint parses a checkpoint file. A missing, unreadable or
// unparseable file reports false, and the name starts fresh: recovery
// salvages what it can rather than refusing the session.
func readCheckpoint(path string) (serialize.StateHeader, []serialize.Tensor, bool) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return serialize.StateHeader{}, nil, false
	}
	h, tensors, err := serialize.LoadState(bytes.NewReader(blob))
	return h, tensors, err == nil
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

// writeCheckpoint flattens state and writes it over the session's
// checkpoint file; a failed write leaves the previous file in place. Called
// by the committing worker while it still holds the stream's in-flight
// gate (never the group lock), so writes for one session are naturally
// ordered.
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
	return replaceFile(g.ckptFile(name), buf.Bytes())
}

// CheckpointedSessions lists the session names with a checkpoint file in
// Checkpoint.Dir, in byte order — operational introspection for the
// recovery path.
func (s *Server) CheckpointedSessions() []string {
	if s.cfg.Checkpoint.Dir == "" {
		return nil
	}
	entries, _ := os.ReadDir(s.cfg.Checkpoint.Dir)
	var out []string
	for _, e := range entries {
		file, ok := strings.CutSuffix(e.Name(), ".ckpt")
		if !ok || e.IsDir() {
			continue
		}
		if name, err := hex.DecodeString(file); err == nil {
			out = append(out, string(name))
		}
	}
	return out
}
