// Package serialize persists model checkpoints in a small self-describing
// binary format, so the repro-scale training runs behind the accuracy
// experiments can be cached and reloaded instead of retrained.
//
// Format (little-endian):
//
//	magic "EDGETTA1" | tag string | uint32 tensor count |
//	repeated: name string | uint32 length | float32 data...
//
// Strings are uint32 length + raw bytes. The tensor set is every learnable
// parameter plus each BatchNorm's running statistics, keyed by the layer
// names, so a checkpoint only loads into the identical architecture.
package serialize

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"edgetta/internal/models"
)

var magic = [8]byte{'E', 'D', 'G', 'E', 'T', 'T', 'A', '1'}

// Tensor is one named float32 payload of either container.
type Tensor struct {
	Name string
	Data []float32
}

// tensorsOf collects every persistable tensor of the model in a
// deterministic order, as views of the model's own memory.
func tensorsOf(m *models.Model) []Tensor {
	var out []Tensor
	for _, p := range m.Params() {
		out = append(out, Tensor{p.Name, p.Data})
	}
	for _, bn := range m.BatchNorms() {
		out = append(out, Tensor{bn.Name() + ".running_mean", bn.RunningMean})
		out = append(out, Tensor{bn.Name() + ".running_var", bn.RunningVar})
	}
	return out
}

// Save writes the model's weights and BN statistics to w.
func Save(w io.Writer, m *models.Model) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := writeString(bw, m.Tag); err != nil {
		return err
	}
	if err := writeTensors(bw, tensorsOf(m)); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a checkpoint from r into an already-constructed model of the
// identical architecture: the checkpoint must hold every tensor of the
// model exactly once, by name and length. The model is written only after
// the whole checkpoint has been read and matched, so a refused checkpoint
// leaves it as it was.
func Load(r io.Reader, m *models.Model) error {
	br := bufio.NewReader(r)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return fmt.Errorf("serialize: reading magic: %w", err)
	}
	if got != magic {
		return fmt.Errorf("serialize: bad magic %q", got)
	}
	tag, err := readString(br)
	if err != nil {
		return err
	}
	if tag != m.Tag {
		return fmt.Errorf("serialize: checkpoint is for %q, model is %q", tag, m.Tag)
	}
	tensors, err := readTensors(br)
	if err != nil {
		return err
	}
	want := tensorsOf(m)
	if len(tensors) != len(want) {
		return fmt.Errorf("serialize: checkpoint has %d tensors, model has %d", len(tensors), len(want))
	}
	index := make(map[string][]float32, len(want))
	for _, t := range want {
		index[t.Name] = t.Data
	}
	dsts := make([][]float32, len(tensors))
	for i, t := range tensors {
		dst, ok := index[t.Name]
		if !ok {
			return fmt.Errorf("serialize: checkpoint tensor %q is not in the model, or is named twice", t.Name)
		}
		delete(index, t.Name) // each model tensor is filled once
		if len(t.Data) != len(dst) {
			return fmt.Errorf("serialize: tensor %q has %d values, model expects %d", t.Name, len(t.Data), len(dst))
		}
		dsts[i] = dst
	}
	for i, t := range tensors {
		copy(dsts[i], t.Data)
	}
	return nil
}

// SaveFile writes the checkpoint to path.
func SaveFile(path string, m *models.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads the checkpoint at path into m.
func LoadFile(path string, m *models.Model) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Load(f, m)
}

// The bounds a tensor list is read under: no container this repo writes
// comes near either, and a hostile count or length must not size an
// allocation.
const (
	maxTensors   = 1 << 16
	maxTensorLen = 1 << 24
)

// writeTensors writes the tensor list both containers end in:
//
//	uint32 count | repeated: name string | uint32 length | float32 data...
//
// Float32 payloads are written bit-for-bit.
func writeTensors(w io.Writer, tensors []Tensor) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(tensors))); err != nil {
		return err
	}
	for _, t := range tensors {
		if err := writeString(w, t.Name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(t.Data))); err != nil {
			return err
		}
		buf := make([]byte, 4*len(t.Data))
		for i, v := range t.Data {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// readTensors reads a list written by writeTensors into fresh slices,
// refusing a count past maxTensors or a length past maxTensorLen before
// allocating for it.
func readTensors(r io.Reader) ([]Tensor, error) {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if count > maxTensors {
		return nil, fmt.Errorf("serialize: unreasonable tensor count %d", count)
	}
	tensors := make([]Tensor, 0, count)
	for i := uint32(0); i < count; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		if n > maxTensorLen {
			return nil, fmt.Errorf("serialize: unreasonable tensor length %d for %q", n, name)
		}
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("serialize: reading tensor %q: %w", name, err)
		}
		data := make([]float32, n)
		for j := range data {
			data[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
		}
		tensors = append(tensors, Tensor{Name: name, Data: data})
	}
	return tensors, nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("serialize: unreasonable string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
