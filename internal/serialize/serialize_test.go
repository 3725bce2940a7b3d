package serialize

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"edgetta/internal/models"
	"edgetta/internal/tensor"
)

func model(seed int64) *models.Model {
	return models.WideResNet402(rand.New(rand.NewSource(seed)), models.ReproScale)
}

func TestRoundTripRestoresForward(t *testing.T) {
	src := model(1)
	// Perturb BN running stats so they are non-default and must survive.
	for _, bn := range src.BatchNorms() {
		for i := range bn.RunningMean {
			bn.RunningMean[i] = float32(i%5) * 0.1
			bn.RunningVar[i] = 1 + float32(i%3)*0.2
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := model(2) // different weights
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 3, 32, 32)
	x.Uniform(rand.New(rand.NewSource(3)), 0, 1)
	ys := src.Forward(x, false)
	yd := dst.Forward(x, false)
	for i := range ys.Data {
		if ys.Data[i] != yd.Data[i] {
			t.Fatalf("forward mismatch after load at %d: %v vs %v", i, ys.Data[i], yd.Data[i])
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	src := model(1)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	other := models.PreActResNet18(rand.New(rand.NewSource(1)), models.ReproScale)
	if err := Load(&buf, other); err == nil {
		t.Fatal("loading a WRN checkpoint into a ResNet must fail")
	}
}

func TestLoadRejectsWrongScale(t *testing.T) {
	src := model(1)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	full := models.WideResNet402(rand.New(rand.NewSource(1)), models.Full)
	if err := Load(&buf, full); err == nil {
		t.Fatal("loading a repro-scale checkpoint into the full model must fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if err := Load(bytes.NewReader([]byte("not a checkpoint at all")), model(1)); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if err := Load(bytes.NewReader(nil), model(1)); err == nil {
		t.Fatal("empty input must be rejected")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	src := model(1)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if err := Load(bytes.NewReader(data[:len(data)/2]), model(2)); err == nil {
		t.Fatal("truncated checkpoint must be rejected")
	}
}

// TestLoadRejectsRepeatedTensor: a checkpoint that names one tensor twice
// and omits another has the right count and only known names, and must
// still be refused — with the model left as it was, not half loaded. The
// file is spelt out byte by byte here, so the test also pins the format.
func TestLoadRejectsRepeatedTensor(t *testing.T) {
	src := model(1)
	tensors := tensorsOf(src)
	tensors[1] = tensors[0]

	var buf bytes.Buffer
	le := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	str := func(s string) { le(uint32(len(s))); buf.WriteString(s) }
	buf.WriteString("EDGETTA1")
	str(src.Tag)
	le(uint32(len(tensors)))
	for _, ts := range tensors {
		str(ts.Name)
		le(uint32(len(ts.Data)))
		le(ts.Data)
	}

	dst := model(2)
	var before bytes.Buffer
	if err := Save(&before, dst); err != nil {
		t.Fatal(err)
	}
	err := Load(&buf, dst)
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("Load of a checkpoint naming %q twice: err = %v, want a repeated-name refusal", tensors[0].Name, err)
	}
	var after bytes.Buffer
	if err := Save(&after, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("the refused checkpoint was partly loaded")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ckpt")
	src := model(5)
	if err := SaveFile(path, src); err != nil {
		t.Fatal(err)
	}
	dst := model(6)
	if err := LoadFile(path, dst); err != nil {
		t.Fatal(err)
	}
	ps, pd := src.Params(), dst.Params()
	for i := range ps {
		for j := range ps[i].Data {
			if ps[i].Data[j] != pd[i].Data[j] {
				t.Fatalf("param %s differs after file round trip", ps[i].Name)
			}
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if err := LoadFile(filepath.Join(t.TempDir(), "missing.ckpt"), model(1)); err == nil {
		t.Fatal("missing file must error")
	}
}
