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

// namedTensor pairs a checkpoint key with its backing slice.
type namedTensor struct {
	name string
	data []float32
}

// tensorsOf collects every persistable tensor of the model in a
// deterministic order.
func tensorsOf(m *models.Model) []namedTensor {
	var out []namedTensor
	for _, p := range m.Params() {
		out = append(out, namedTensor{p.Name, p.Data})
	}
	for _, bn := range m.BatchNorms() {
		out = append(out, namedTensor{bn.Name() + ".running_mean", bn.RunningMean})
		out = append(out, namedTensor{bn.Name() + ".running_var", bn.RunningVar})
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
	tensors := tensorsOf(m)
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(tensors))); err != nil {
		return err
	}
	for _, t := range tensors {
		if err := writeString(bw, t.name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(t.data))); err != nil {
			return err
		}
		buf := make([]byte, 4*len(t.data))
		for i, v := range t.data {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a checkpoint from r into an already-constructed model of the
// identical architecture; every tensor must match by name and length.
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
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return err
	}
	want := tensorsOf(m)
	index := make(map[string][]float32, len(want))
	for _, t := range want {
		index[t.name] = t.data
	}
	if int(count) != len(want) {
		return fmt.Errorf("serialize: checkpoint has %d tensors, model has %d", count, len(want))
	}
	for i := uint32(0); i < count; i++ {
		name, err := readString(br)
		if err != nil {
			return err
		}
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return err
		}
		dst, ok := index[name]
		if !ok {
			return fmt.Errorf("serialize: checkpoint tensor %q not in model", name)
		}
		if int(n) != len(dst) {
			return fmt.Errorf("serialize: tensor %q has %d values, model expects %d", name, n, len(dst))
		}
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("serialize: reading %q: %w", name, err)
		}
		for j := range dst {
			dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
		}
	}
	// Loading overwrote parameter data in place; bump versions so layers
	// drop caches derived from the old values (rotated conv kernels).
	for _, p := range m.Params() {
		p.MarkUpdated()
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
