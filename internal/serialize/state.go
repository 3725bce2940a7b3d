package serialize

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Adapter-state container: the on-disk shape of one stream's adaptation
// checkpoint (internal/serve's fault-recovery path). Unlike the model
// checkpoint above, which loads into an already-constructed model, a state
// container must be self-describing — on server restart the recovery scan
// reads headers before any group or model exists — so it carries the group
// routing (model tag + algorithm spelling), the state kind, and the
// sequence number of the last batch the state reflects.
//
// Format (little-endian):
//
//	magic "EDGETTAS" | model string | algo string | kind string |
//	uint64 seq | uint32 tensor count |
//	repeated: name string | uint32 length | float32 data...
//
// Float32 payloads are written bit-for-bit, so a loaded state replays to
// bitwise parity with the run that saved it.

var stateMagic = [8]byte{'E', 'D', 'G', 'E', 'T', 'T', 'A', 'S'}

// StateHeader routes a checkpoint back to its serving group and position
// in the stream: Seq is the sequence number of the last batch applied to
// the state (0 for an unsequenced stream).
type StateHeader struct {
	Model string
	Algo  string
	Kind  string
	Seq   uint64
}

// SaveState writes one adaptation-state checkpoint to w.
func SaveState(w io.Writer, h StateHeader, tensors []Tensor) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(stateMagic[:]); err != nil {
		return err
	}
	for _, s := range []string{h.Model, h.Algo, h.Kind} {
		if err := writeString(bw, s); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, h.Seq); err != nil {
		return err
	}
	if err := writeTensors(bw, tensors); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadState reads one adaptation-state checkpoint from r.
func LoadState(r io.Reader) (StateHeader, []Tensor, error) {
	br := bufio.NewReader(r)
	var h StateHeader
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return h, nil, fmt.Errorf("serialize: reading state magic: %w", err)
	}
	if got != stateMagic {
		return h, nil, fmt.Errorf("serialize: bad state magic %q", got)
	}
	for _, dst := range []*string{&h.Model, &h.Algo, &h.Kind} {
		s, err := readString(br)
		if err != nil {
			return h, nil, err
		}
		*dst = s
	}
	if err := binary.Read(br, binary.LittleEndian, &h.Seq); err != nil {
		return h, nil, err
	}
	tensors, err := readTensors(br)
	if err != nil {
		return h, nil, err
	}
	return h, tensors, nil
}
