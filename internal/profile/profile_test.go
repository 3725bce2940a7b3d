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
	var leaves int
	nn.Walk(m.Net, func(l nn.Layer) {
		if l.Spec().Kind != nn.KindComposite {
			leaves++
		}
	})
	if len(tr) != leaves {
		t.Fatalf("trace has %d layers, model has %d leaves", len(tr), leaves)
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

// tags lists the study's four models.
var tags = []string{"RXT-AM", "WRN-AM", "R18-AM-AT", "MBV2"}

func get(t *testing.T, tag string) *ModelProfile {
	t.Helper()
	p, err := Get(tag)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGroupedConvMACsOnlyForGroupedModels: ResNeXt's cardinality and
// MobileNetV2's depthwise stage are grouped convs, which the device model
// charges at its GroupPenalty; WRN and R18 have none.
func TestGroupedConvMACsOnlyForGroupedModels(t *testing.T) {
	grouped := map[string]bool{"RXT-AM": true, "MBV2": true}
	for _, tag := range tags {
		p := get(t, tag)
		var want int64
		for _, l := range p.Trace {
			if l.Kind == nn.KindConv && l.Conv.Groups < 1 {
				t.Errorf("%s: conv %s records %d groups", tag, l.LayerName, l.Conv.Groups)
			}
			if l.Conv.Groups > 1 {
				want += l.MACs
			}
		}
		s := p.Summary
		if s.GroupMACs != want {
			t.Errorf("%s: GroupMACs = %d, the trace's grouped convs sum to %d", tag, s.GroupMACs, want)
		}
		if grouped[tag] != (s.GroupMACs > 0) {
			t.Errorf("%s: GroupMACs = %d, want grouped convs: %v", tag, s.GroupMACs, grouped[tag])
		}
		if s.GroupMACs >= s.ConvMACs {
			t.Errorf("%s: grouped MACs %d must be a strict subset of conv MACs %d", tag, s.GroupMACs, s.ConvMACs)
		}
	}
}

// TestArchitectureFidelity pins the full-scale models against the counts
// the paper reports in Sec III-B and IV-F. The BN-parameter counts are
// exact; total parameters and GMACs (conv plus linear MACs of one image,
// pinned here and nowhere else) are within rounding of the paper's figures
// (EXPERIMENTS.md's calibration anchors are those the simulator is held
// to).
func TestArchitectureFidelity(t *testing.T) {
	cases := []struct {
		tag       string
		bnParams  int64
		minParams int64
		maxParams int64
		minGMACs  float64
		maxGMACs  float64
	}{
		{"R18-AM-AT", 7808, 11_000_000, 11_300_000, 0.54, 0.58},
		{"WRN-AM", 5408, 2_200_000, 2_300_000, 0.31, 0.35},
		{"RXT-AM", 25216, 6_700_000, 6_930_000, 1.00, 1.10},
		{"MBV2", 34112, 2_200_000, 2_400_000, 0.085, 0.100},
	}
	for _, tc := range cases {
		s := get(t, tc.tag).Summary
		if s.BNParams != tc.bnParams {
			t.Errorf("%s: BN params = %d, want %d (paper)", tc.tag, s.BNParams, tc.bnParams)
		}
		if s.Params < tc.minParams || s.Params > tc.maxParams {
			t.Errorf("%s: params = %d, want in [%d, %d]", tc.tag, s.Params, tc.minParams, tc.maxParams)
		}
		g := float64(s.ConvMACs+s.LinearMACs) / 1e9
		if g < tc.minGMACs || g > tc.maxGMACs {
			t.Errorf("%s: GMACs = %.3f, want in [%.2f, %.2f]", tc.tag, g, tc.minGMACs, tc.maxGMACs)
		}
	}
}

// TestBNParamShare verifies the paper's claim that the BN transformation
// parameters are <1% of total model parameters (Sec II-C).
func TestBNParamShare(t *testing.T) {
	for _, tag := range tags {
		s := get(t, tag).Summary
		if share := float64(s.BNParams) / float64(s.Params); share >= 0.02 {
			t.Errorf("%s: BN share %.4f, want < 0.02", tag, share)
		}
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
// whole cost model rests on (values from the real captured forwards). The
// activation, saved-element and BN-layer counts are exact: a rectifier
// counts once per BatchNorm that ends in one, with the output PyTorch
// saves for it. The MAC sum is TestArchitectureFidelity's.
func TestFullScaleTraceTotals(t *testing.T) {
	cases := []struct {
		tag                  string
		minSavedMB           float64
		maxSavedMB           float64
		actLayers, bnLayers  int
		actElems, savedElems int64
	}{
		{"RXT-AM", 38, 44, 28, 31, 3_112_960, 10_194_944},
		{"WRN-AM", 8, 10, 37, 37, 704_512, 2_174_080},
		{"R18-AM-AT", 6, 8, 17, 17, 557_056, 1_781_248},
		{"MBV2", 17, 21, 35, 52, 1_502_208, 4_765_952},
	}
	for _, c := range cases {
		p, err := Get(c.tag)
		if err != nil {
			t.Fatal(err)
		}
		s := p.Summary
		mb := float64(s.SavedElems) * 4 / 1e6
		if mb < c.minSavedMB || mb > c.maxSavedMB {
			t.Errorf("%s: %.1f MB/img saved outside [%.0f, %.0f]", c.tag, mb, c.minSavedMB, c.maxSavedMB)
		}
		if s.ActLayers != c.actLayers || s.ActElems != c.actElems || s.SavedElems != c.savedElems || s.BNLayers != c.bnLayers {
			t.Errorf("%s: ActLayers %d, ActElems %d, SavedElems %d, BNLayers %d; want %d, %d, %d, %d",
				c.tag, s.ActLayers, s.ActElems, s.SavedElems, s.BNLayers, c.actLayers, c.actElems, c.savedElems, c.bnLayers)
		}
	}
}
