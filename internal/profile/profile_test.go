package profile

import (
	"math/rand"
	"testing"

	"edgetta/internal/models"
	"edgetta/internal/nn"
)

func TestCaptureRecordsAllLeafLayers(t *testing.T) {
	m := models.WideResNet402(rand.New(rand.NewSource(1)), models.ReproScale)
	tr := Capture(m)
	if tr.Batch != 1 || tr.ModelTag != "WRN-AM" {
		t.Fatalf("trace header %+v", tr)
	}
	var leaves int
	nn.Walk(m.Net, func(l nn.Layer) {
		if l.Spec().Kind != nn.KindComposite {
			leaves++
		}
	})
	if len(tr.Layers) != leaves {
		t.Fatalf("trace has %d layers, model has %d leaves", len(tr.Layers), leaves)
	}
}

func TestSummaryMatchesModelStats(t *testing.T) {
	for _, tag := range []string{"WRN-AM", "R18-AM-AT"} {
		p, err := Get(tag)
		if err != nil {
			t.Fatal(err)
		}
		if p.Summary.Params != p.Stats.Params {
			t.Errorf("%s: summary params %d != stats params %d", tag, p.Summary.Params, p.Stats.Params)
		}
		if p.Summary.BNParams != p.Stats.BNParams {
			t.Errorf("%s: summary BN params %d != stats %d", tag, p.Summary.BNParams, p.Stats.BNParams)
		}
		totalMACs := p.Summary.ConvMACs + p.Summary.LinearMACs
		if totalMACs != p.Stats.MACs {
			t.Errorf("%s: summary MACs %d != stats %d", tag, totalMACs, p.Stats.MACs)
		}
	}
}

func TestGetCachesProfiles(t *testing.T) {
	a, err := Get("WRN-AM")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Get("WRN-AM")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Get should return the cached profile pointer")
	}
	if _, err := Get("bogus"); err == nil {
		t.Error("expected error for unknown tag")
	}
}

func TestGroupedConvMACsOnlyForGroupedModels(t *testing.T) {
	rxt, err := Get("RXT-AM")
	if err != nil {
		t.Fatal(err)
	}
	if rxt.GroupMACs == 0 {
		t.Error("ResNeXt must report grouped-conv MACs")
	}
	if rxt.GroupMACs >= rxt.Summary.ConvMACs {
		t.Error("grouped MACs must be a strict subset of conv MACs")
	}
	wrn, err := Get("WRN-AM")
	if err != nil {
		t.Fatal(err)
	}
	if wrn.GroupMACs != 0 {
		t.Errorf("WRN has no grouped convolutions, got %d", wrn.GroupMACs)
	}
}

// TestBigBNOnlyResNeXt: of the four models, only ResNeXt-29 has BN layers
// at ≥1024 channels (the modeled GPU cliff of Fig. 10a).
func TestBigBNOnlyResNeXt(t *testing.T) {
	for _, tag := range []string{"WRN-AM", "R18-AM-AT"} {
		p, err := Get(tag)
		if err != nil {
			t.Fatal(err)
		}
		if p.Summary.BigBNElems != 0 {
			t.Errorf("%s should have no ≥1024-channel BN layers", tag)
		}
	}
	rxt, err := Get("RXT-AM")
	if err != nil {
		t.Fatal(err)
	}
	if rxt.Summary.BigBNElems == 0 {
		t.Error("ResNeXt must have ≥1024-channel BN layers")
	}
}

// TestFullScaleTraceTotals pins the single-image trace totals that the
// whole cost model rests on (values from the real captured forwards).
func TestFullScaleTraceTotals(t *testing.T) {
	cases := []struct {
		tag        string
		minGMAC    float64
		maxGMAC    float64
		minSavedMB float64
		maxSavedMB float64
	}{
		{"RXT-AM", 1.00, 1.10, 38, 44},
		{"WRN-AM", 0.31, 0.35, 8, 10},
		{"R18-AM-AT", 0.53, 0.58, 6, 8},
		{"MBV2", 0.085, 0.10, 17, 21},
	}
	for _, c := range cases {
		p, err := Get(c.tag)
		if err != nil {
			t.Fatal(err)
		}
		g := float64(p.Summary.ConvMACs+p.Summary.LinearMACs) / 1e9
		if g < c.minGMAC || g > c.maxGMAC {
			t.Errorf("%s: %.3f GMACs outside [%.2f, %.2f]", c.tag, g, c.minGMAC, c.maxGMAC)
		}
		mb := float64(p.Summary.SavedElems) * 4 / 1e6
		if mb < c.minSavedMB || mb > c.maxSavedMB {
			t.Errorf("%s: %.1f MB/img saved outside [%.0f, %.0f]", c.tag, mb, c.minSavedMB, c.maxSavedMB)
		}
	}
}
