package data

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestStreamDigests pins the bits of every stream the package hands out:
// one Stream.Next draw per corruption family × severity, a clean Batch, a
// mixed-traffic ScheduledStream and a run of AugMixLite. A faster
// corruption must reproduce every pixel and label exactly, so a mismatch
// here is a change in what the models are scored on. A change that moves
// the bits on purpose re-pins from the table this test logs, and says so.
func TestStreamDigests(t *testing.T) {
	got := streamDigests()
	var table strings.Builder
	bad := false
	for _, name := range digestNames() {
		fmt.Fprintf(&table, "\t%-24s %#016x,\n", strconv.Quote(name)+":", got[name])
		if got[name] != pinnedStreamDigests[name] {
			t.Errorf("%s: digest %#016x, pinned %#016x", name, got[name], pinnedStreamDigests[name])
			bad = true
		}
	}
	if len(pinnedStreamDigests) != len(got) {
		t.Errorf("%d pinned digests for %d streams", len(pinnedStreamDigests), len(got))
		bad = true
	}
	if bad {
		t.Logf("if on purpose, re-pin pinnedStreamDigests:\n%s", table.String())
	}
}

// digestNames lists the table's rows in a fixed order.
func digestNames() []string {
	var names []string
	for _, c := range AllCorruptions {
		for sev := 1; sev <= MaxSeverity; sev++ {
			names = append(names, fmt.Sprintf("%s/%d", c, sev))
		}
	}
	return append(names, "clean", "scheduled", "augmix")
}

// streamDigests draws every stream of the table.
func streamDigests() map[string]uint64 {
	const n = 3 // images per draw
	g := NewGenerator(31)
	out := map[string]uint64{}
	for ci, c := range AllCorruptions {
		for sev := 1; sev <= MaxSeverity; sev++ {
			x, labels, _ := g.NewStream(int64(100*ci+sev), n, c, sev).Next(n)
			out[fmt.Sprintf("%s/%d", c, sev)] = digestImages(x.Data, labels)
		}
	}
	x, labels := g.Batch(rand.New(rand.NewSource(5)), n)
	out["clean"] = digestImages(x.Data, labels)

	sc := MixedTraffic("digest", 3, 4, 5, 3)
	s, err := g.NewScheduledStream(6, sc)
	if err != nil {
		panic(err)
	}
	x, labels, _ = s.Next(sc.Total())
	out["scheduled"] = digestImages(x.Data, labels)

	rng := rand.New(rand.NewSource(7))
	var aug []float32
	for i := 0; i < 8; i++ {
		aug = append(aug, AugMixLite(rng, g.Sample(rng, i%NumClasses), ImageSize, ImageSize)...)
	}
	out["augmix"] = digestImages(aug, nil)
	return out
}

// digestImages is the FNV-1a digest of the pixels' float32 bits followed
// by the labels.
func digestImages(pix []float32, labels []int) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(u uint32) {
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	for _, v := range pix {
		put(math.Float32bits(v))
	}
	for _, l := range labels {
		put(uint32(l))
	}
	return h.Sum64()
}

// pinnedStreamDigests are streamDigests' values. The corruptions run no
// vector code and keep every sum in one fixed order, so they hold on every
// GOARCH and GOAMD64 level the tests run on.
var pinnedStreamDigests = map[string]uint64{
	"gaussian_noise/1":    0x77afae7f1d2948ef,
	"gaussian_noise/2":    0x2dfda5828567187b,
	"gaussian_noise/3":    0xe2f64c938abf8d07,
	"gaussian_noise/4":    0xbffd15820bdfe48e,
	"gaussian_noise/5":    0xcd5aee281199963a,
	"shot_noise/1":        0x80ae038847a188ec,
	"shot_noise/2":        0x84c61e45c22a25a8,
	"shot_noise/3":        0x7326a026e25583ca,
	"shot_noise/4":        0xff2f1cfccc2f4afb,
	"shot_noise/5":        0x5010acb7059a3ceb,
	"impulse_noise/1":     0x016a6a75809d8642,
	"impulse_noise/2":     0x95017e71621a46da,
	"impulse_noise/3":     0xb45a221b11fd2fce,
	"impulse_noise/4":     0xa586197059181b6f,
	"impulse_noise/5":     0x226103579019a8ec,
	"defocus_blur/1":      0xcfd5518e2e90c5d9,
	"defocus_blur/2":      0x33379ab504615b04,
	"defocus_blur/3":      0x2be5b6db5f451966,
	"defocus_blur/4":      0x1d8a50d399f61f85,
	"defocus_blur/5":      0xf231fd65b1c81307,
	"glass_blur/1":        0x7e6a4bb0599027c8,
	"glass_blur/2":        0x57e4d590a839f0d1,
	"glass_blur/3":        0xfb30dbffb513f978,
	"glass_blur/4":        0x7f6d0669afe5fef5,
	"glass_blur/5":        0xae9e9b4378794876,
	"motion_blur/1":       0xa8d672b27554d648,
	"motion_blur/2":       0xa80e94159ee6b2cd,
	"motion_blur/3":       0x6716db769dd4b1ea,
	"motion_blur/4":       0x1bcde9da960e342d,
	"motion_blur/5":       0xe8696f8c45e3056e,
	"zoom_blur/1":         0xceaa21e193558853,
	"zoom_blur/2":         0x9072fd9419dcd260,
	"zoom_blur/3":         0x2371748710f8cfde,
	"zoom_blur/4":         0x167fde28e55bad67,
	"zoom_blur/5":         0xd48f98c0141f3123,
	"snow/1":              0xd9cac65b8f6f57bc,
	"snow/2":              0xcc8b9e85dc205925,
	"snow/3":              0xaf65b1946b0f8f16,
	"snow/4":              0xef2923618456402a,
	"snow/5":              0x500beab9ae0763a3,
	"frost/1":             0x1d53bddf0b42dc43,
	"frost/2":             0x83bde50cef89adba,
	"frost/3":             0x85f968130bbda62b,
	"frost/4":             0x925d9524c51f96dc,
	"frost/5":             0x38f86ba6fadccd39,
	"fog/1":               0xfd70cdfe4cd6b4bd,
	"fog/2":               0x856b7b6c5f53b875,
	"fog/3":               0xe86c0069b36a85e1,
	"fog/4":               0x1cfe3e1afb3465e2,
	"fog/5":               0xe0e9cdef8261b773,
	"brightness/1":        0x0213502e105de81a,
	"brightness/2":        0xb05eea8d54bc625c,
	"brightness/3":        0xc338f54ff9cb9ae3,
	"brightness/4":        0xc4a80799f340c2f0,
	"brightness/5":        0xc87887687c655e88,
	"contrast/1":          0xfad9f78db0f88f15,
	"contrast/2":          0xe90acef8f51021e1,
	"contrast/3":          0xa770547aa0f93684,
	"contrast/4":          0xd65fa39e940a9f24,
	"contrast/5":          0xcd77374501f19152,
	"elastic_transform/1": 0x541e2392ca99214c,
	"elastic_transform/2": 0xe0f32b055013cf08,
	"elastic_transform/3": 0xa3cbe2489bf09fc1,
	"elastic_transform/4": 0x325f30bfcd8484ca,
	"elastic_transform/5": 0x934c86489c12b19b,
	"pixelate/1":          0xbfbf4ec881a6a59a,
	"pixelate/2":          0xecbd7225314e81e4,
	"pixelate/3":          0x030d73b9de8521ac,
	"pixelate/4":          0x6961588136f5d936,
	"pixelate/5":          0x654d8a126a1ece18,
	"jpeg/1":              0x08d9ae5921a8b796,
	"jpeg/2":              0x5caae4d845ed4797,
	"jpeg/3":              0xa9bee6fae55b75b8,
	"jpeg/4":              0xe2aa1a0ede48b305,
	"jpeg/5":              0xececd48b60b729bb,
	"clean":               0xd4be2aaaa9d5e8a2,
	"scheduled":           0x388a1bda4d9ad8c1,
	"augmix":              0x1c4e34c33b500adb,
}
