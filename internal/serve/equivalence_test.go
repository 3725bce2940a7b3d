package serve_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/serialize"
	"edgetta/internal/serve"
	"edgetta/internal/serve/chaos"
	"edgetta/internal/serve/httpapi"
	"edgetta/internal/tensor"
)

// TestServeEquivalence is the one table of the serving tier's serve-vs-serial
// promises. A row is an algorithm on the repro PreActResNet-18 (seed 42),
// fed four streams: two plain corruption streams, and an abrupt switch and
// a severity ramp whose batches of 8 straddle 10-sample phases and end
// short. The row's reference runs each stream through a private adapter,
// once, and every axis shares it. An axis serves the row one way: every
// response must equal the reference bit for bit — a failing cell names the
// stream, the batch and the first logit that diverges — every batch must be
// served, and the axis adds its own checks. Cells are
// TestServeEquivalence/<axis>/<row>. A new serving promise is one more
// entry in axes.
func TestServeEquivalence(t *testing.T) {
	base := models.PreActResNet18(rand.New(rand.NewSource(42)), models.ReproScale)
	streams := equivalenceStreams(t)
	rows := make([]*row, len(core.Algorithms))
	for i, algo := range core.Algorithms {
		rows[i] = &row{algo: algo, base: base, streams: streams}
	}
	for _, ax := range axes {
		t.Run(ax.name, func(t *testing.T) {
			for _, r := range rows {
				t.Run(r.algo.String(), func(t *testing.T) {
					if ax.statefulOnly != "" && !r.stateful() {
						t.Skip(ax.statefulOnly)
					}
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					defer cancel()
					c := &cell{row: r, ctx: ctx, want: r.reference(t).logits, seen: map[arrival]bool{}}
					ax.run(t, c)
					c.covered(t)
				})
			}
		})
	}
}

// replicas is every axis's pool size: fewer replicas than streams, so
// streams share them.
const replicas = 2

// axes are the ways a row is served. Each run serves every stream of the
// cell, handing each response to c.check.
var axes = []struct {
	name         string
	run          func(t *testing.T, c *cell)
	statefulOnly string // why a stateless row has no such cell, or ""
}{
	{name: "concurrent", run: concurrentAxis},
	{name: "pipelined", run: pipelinedAxis},
	{name: "http/json", run: httpAxis(false)},
	{name: "http/binary", run: httpAxis(true)},
	{name: "panic", run: panicAxis},
	{name: "shed", run: shedAxis},
	{name: "dropped", run: droppedAxis},
	{name: "restart", run: restartAxis,
		statefulOnly: "No-Adapt keeps no adaptation state, so a session of it has nothing to checkpoint or resume"},
}

// concurrentAxis: a goroutine per stream on the shared replicas, each
// waiting for its response before it submits its next batch.
func concurrentAxis(t *testing.T, c *cell) {
	srv, key := c.server(t, serve.Config{QueueCap: 16})
	sts := c.open(t, srv, key)
	c.each(t, func(s int) error {
		for b, x := range c.streams[s].batches {
			logits, err := sts[s].ProcessSeq(c.ctx, x, 0)
			if err != nil {
				return fmt.Errorf("batch %d: %w", b, err)
			}
			c.check(t, s, b, logits)
		}
		return nil
	})
	g, _ := srv.GroupSnapshot(key)
	if images, _ := c.sizes(); g.Stateful != c.stateful() || g.Replicas != replicas || g.Images != images {
		t.Errorf("snapshot: stateful %v, %d replicas, %d images; want %v, %d, %d",
			g.Stateful, g.Replicas, g.Images, c.stateful(), replicas, images)
	}
	c.uncoalesced(t, g)
}

// pipelinedAxis submits every batch, in the seeded arrival order, before
// it reads any response, with linger on: a stateless group coalesces
// requests of different streams, and a stateful one still serves each
// stream in order.
func pipelinedAxis(t *testing.T, c *cell) {
	srv, key := c.server(t, serve.Config{MaxBatch: 64, MaxLinger: 100 * time.Millisecond, QueueCap: 64})
	sts := c.open(t, srv, key)
	resps := make([][]<-chan serve.Response, len(c.streams))
	for _, a := range c.arrivals(60) {
		resps[a.s] = append(resps[a.s], sts[a.s].SubmitCtx(c.ctx, c.streams[a.s].batches[a.b]))
	}
	for s, chs := range resps {
		for b, ch := range chs {
			r := <-ch
			if r.Err != nil {
				t.Fatalf("stream %s batch %d: %v", c.streams[s].name, b, r.Err)
			}
			c.check(t, s, b, r.Logits)
		}
	}
	g, _ := srv.GroupSnapshot(key)
	images, largest := c.sizes()
	if g.Images != images {
		t.Errorf("Images = %d, want %d", g.Images, images)
	}
	if c.stateful() {
		c.uncoalesced(t, g)
	} else if g.MaxCoalesced <= largest || g.Batches >= g.Requests {
		t.Errorf("MaxCoalesced %d (largest request %d), %d Process calls for %d requests: no request was coalesced",
			g.MaxCoalesced, largest, g.Batches, g.Requests)
	}
}

// httpAxis serves each stream through its own httpapi session in one
// codec, all sessions at once.
func httpAxis(binary bool) func(*testing.T, *cell) {
	return func(t *testing.T, c *cell) {
		srv, _ := c.server(t, serve.Config{QueueCap: 16})
		ts := httptest.NewServer(httpapi.New(srv, httpapi.Config{}))
		t.Cleanup(ts.Close)
		c.each(t, func(s int) error {
			client := httpapi.NewClient(ts.URL, nil)
			client.Binary = binary
			cs, err := client.Open(c.base.Tag, c.algo.String())
			if err != nil {
				return err
			}
			for b, x := range c.streams[s].batches {
				logits, err := cs.Process(x)
				if err != nil {
					return fmt.Errorf("batch %d: %w", b, err)
				}
				c.check(t, s, b, logits)
			}
			ss, err := cs.Close()
			if n := len(c.streams[s].batches); err != nil || ss.Requests != n {
				return fmt.Errorf("final snapshot Requests = %d, err %v; want %d", ss.Requests, err, n)
			}
			return nil
		})
	}
}

// panicAxis panics scripted dispatches. Each failed request comes back as
// the retryable replica fault and is retried under its sequence number
// until a respawned pool serves it.
func panicAxis(t *testing.T, c *cell) {
	plan := chaos.Plan{PanicAt: []uint64{2, 4}}
	inj := chaos.NewInjector(plan)
	srv, key := c.server(t, serve.Config{QueueCap: 16, Injector: inj})
	sts := c.open(t, srv, key)
	var faulted atomic.Int64
	c.each(t, func(s int) error {
		for b, x := range c.streams[s].batches {
			for {
				logits, err := sts[s].ProcessSeq(c.ctx, x, uint64(b+1))
				if err == nil {
					c.check(t, s, b, logits)
					break
				}
				if !errors.Is(err, serve.ErrReplicaFault) {
					return fmt.Errorf("batch %d: %w (want nil or ErrReplicaFault)", b, err)
				}
				faulted.Add(1)
				time.Sleep(2 * time.Millisecond) // a replacement is spawning
			}
		}
		return nil
	})
	n, fired := len(plan.PanicAt), 0
	for _, line := range inj.Injected() {
		if strings.HasPrefix(line, "panic:") {
			fired++
		}
	}
	if fired != n || faulted.Load() < int64(n) {
		t.Errorf("%d panics fired and %d requests failed with ErrReplicaFault, want %d and at least %d", fired, faulted.Load(), n, n)
	}
	g, _ := srv.GroupSnapshot(key)
	for deadline := time.Now().Add(10 * time.Second); (g.Respawns < n || g.Respawning > 0) && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		g, _ = srv.GroupSnapshot(key)
	}
	if g.Faults != n || g.Respawns != n || len(g.QuarantinedIDs) != n || g.Replicas != replicas {
		t.Errorf("Faults %d, Respawns %d, QuarantinedIDs %v, Replicas %d; want %d, %d, %d entries, %d",
			g.Faults, g.Respawns, g.QuarantinedIDs, g.Replicas, n, n, n, replicas)
	}
	if g.Recovery.Count < 1 {
		t.Errorf("Recovery.Count = %d, want >= 1: no fault-to-first-served time was observed", g.Recovery.Count)
	}
}

// shedAxis submits the seeded arrival order in waves of five into a
// 2-deep queue that sheds, reading a wave's responses before the next wave:
// a stream's accepted batches, shed ones between them, must equal a serial
// run over that subset alone. Its batch numbers count accepted batches.
func shedAxis(t *testing.T, c *cell) {
	srv, key := c.server(t, serve.Config{QueueCap: 2, Admission: serve.AdmitShed})
	sts := c.open(t, srv, key)
	xs := make([][]*tensor.Tensor, len(c.streams))
	got := make([][]*tensor.Tensor, len(c.streams))
	shed, images := 0, 0
	for order := c.arrivals(61); len(order) > 0; {
		wave := order[:min(5, len(order))]
		order = order[len(wave):]
		chs := make([]<-chan serve.Response, len(wave))
		for i, a := range wave {
			chs[i] = sts[a.s].SubmitCtx(c.ctx, c.streams[a.s].batches[a.b])
		}
		for i, a := range wave {
			r := <-chs[i]
			if errors.Is(r.Err, serve.ErrOverloaded) {
				shed++
				continue
			} else if r.Err != nil {
				t.Fatalf("stream %s batch %d: %v", c.streams[a.s].name, a.b, r.Err)
			}
			x := c.streams[a.s].batches[a.b]
			xs[a.s], got[a.s] = append(xs[a.s], x), append(got[a.s], r.Logits)
			images += x.Dim(0)
		}
	}
	accepted := 0
	c.want = make([][][]float32, len(c.streams))
	for s := range xs {
		accepted += len(xs[s])
		c.want[s], _ = serial(t, c.base, c.algo, xs[s])
		for b, logits := range got[s] {
			c.check(t, s, b, logits)
		}
	}
	if shed == 0 || accepted == 0 {
		t.Fatalf("%d requests shed and %d accepted: want at least one of each", shed, accepted)
	}
	if g, _ := srv.GroupSnapshot(key); g.Shed != shed || g.Requests != accepted || g.Images != images {
		t.Errorf("snapshot: %d shed, %d requests, %d images; want %d, %d, %d", g.Shed, g.Requests, g.Images, shed, accepted, images)
	}
}

// droppedAxis serves every stream through its own sequenced binary httpapi
// session over one transport that drops one request before it is sent and
// one response after the server applied its batch; the clients retry. The
// sessions open first, so both drops land on submits.
func droppedAxis(t *testing.T, c *cell) {
	srv, key := c.server(t, serve.Config{QueueCap: 16})
	ts := httptest.NewServer(httpapi.New(srv, httpapi.Config{}))
	t.Cleanup(ts.Close)
	k := uint64(len(c.streams))
	drop := chaos.NewDropRoundTripper(nil, chaos.Plan{DropResponseAt: []uint64{k + 2}, DropRequestAt: []uint64{k + 5}})
	sessions := make([]*httpapi.ClientStream, len(c.streams))
	for s := range sessions {
		client := httpapi.NewClient(ts.URL, &http.Client{Transport: drop}).WithRetry(httpapi.RetryPolicy{
			MaxAttempts: 4, Base: time.Millisecond, Cap: 50 * time.Millisecond, Seed: int64(7 + s),
		})
		client.Binary = true
		var err error
		if sessions[s], err = client.Open(c.base.Tag, c.algo.String()); err != nil {
			t.Fatalf("Open: %v", err)
		}
	}
	c.each(t, func(s int) error {
		for b, x := range c.streams[s].batches {
			logits, err := sessions[s].ProcessSeq(x, uint64(b+1))
			if err != nil {
				return fmt.Errorf("seq %d: %w", b+1, err)
			}
			c.check(t, s, b, logits)
		}
		return nil
	})
	if fired := drop.Injected(); len(fired) != 2 {
		t.Errorf("drops fired: %q, want one request and one response", fired)
	}
	// A stateless group serves a retried batch again; a stateful one must
	// adapt on every image once: the dropped response's retry replays.
	if g, _ := srv.GroupSnapshot(key); c.stateful() {
		if images, _ := c.sizes(); g.Images != images {
			t.Errorf("the group adapted %d images, want exactly %d", g.Images, images)
		}
	}
}

// restartAxis checkpoints named sessions every 2 batches, closes the
// server after each session's third batch and builds a new one over the
// same directory. Each session resumes by its token at its last checkpoint,
// whose file holds the serial adapter's state after that batch bit for bit,
// and replays from there.
func restartAxis(t *testing.T, c *cell) {
	const every, cut = 2, 3
	const ckptSeq = cut / every * every
	dir := t.TempDir()
	cfg := serve.Config{QueueCap: 16, Checkpoint: serve.CheckpointConfig{Every: every, Dir: dir}}
	srvA, key := c.server(t, cfg)
	names := make([]string, len(c.streams))
	sts := make([]*serve.Stream, len(c.streams))
	for s := range c.streams {
		names[s] = c.streams[s].name
		st, resumed, err := srvA.OpenSession(key, names[s])
		if err != nil || resumed {
			t.Fatalf("OpenSession(%s): resumed %v, err %v; want a fresh session", names[s], resumed, err)
		}
		sts[s] = st
	}
	if _, _, err := srvA.OpenSession(key, names[0]); err == nil {
		t.Errorf("a second OpenSession(%s) succeeded; an open name must be refused", names[0])
	}
	c.each(t, func(s int) error {
		for b := range cut {
			logits, err := sts[s].ProcessSeq(c.ctx, c.streams[s].batches[b], uint64(b+1))
			if err != nil {
				return fmt.Errorf("before the restart, seq %d: %w", b+1, err)
			}
			c.check(t, s, b, logits)
		}
		return nil
	})
	if got, want := srvA.CheckpointedSessions(), slices.Sorted(slices.Values(names)); !slices.Equal(got, want) {
		t.Errorf("CheckpointedSessions = %q, want %q", got, want)
	}
	srvA.Close()

	for s, name := range names {
		blob, err := os.ReadFile(filepath.Join(dir, hex.EncodeToString([]byte(name))+".ckpt"))
		if err != nil {
			t.Fatalf("stream %s: %v", name, err)
		}
		h, tensors, err := serialize.LoadState(bytes.NewReader(blob))
		if err != nil || h.Seq != ckptSeq {
			t.Fatalf("stream %s: checkpoint at seq %d, err %v; want seq %d", name, h.Seq, err, ckptSeq)
		}
		if d := diffState(c.reference(t).states[s][ckptSeq-1], tensors); d != "" {
			t.Errorf("stream %s: the checkpoint at seq %d is not the serial adapter's state after batch %d: %s", name, h.Seq, ckptSeq-1, d)
		}
	}

	srvB, _ := c.server(t, cfg)
	c.each(t, func(s int) error {
		st, err := srvB.Stream(sts[s].Token())
		if err != nil {
			return err
		}
		if got := st.Snapshot().AppliedSeq; got != ckptSeq {
			return fmt.Errorf("resumed at AppliedSeq %d, want %d (the last checkpoint)", got, ckptSeq)
		}
		xs := c.streams[s].batches
		for b := ckptSeq; b < len(xs); b++ {
			logits, err := st.ProcessSeq(c.ctx, xs[b], uint64(b+1))
			if err != nil {
				return fmt.Errorf("after the restart, seq %d: %w", b+1, err)
			}
			c.check(t, s, b, logits)
		}
		_, err = st.ProcessSeq(c.ctx, xs[0], 42)
		if se := (*serve.Error)(nil); !errors.As(err, &se) || se.Code != serve.CodeSequence || se.ExpectSeq != uint64(len(xs)+1) {
			return fmt.Errorf("a gap after the resume: err = %v, want CodeSequence with ExpectSeq %d", err, len(xs)+1)
		}
		st.Close()
		return nil
	})
	_, err := srvB.Stream("n" + hex.EncodeToString([]byte("never-seen")))
	if se := (*serve.Error)(nil); !errors.As(err, &se) || se.Code != serve.CodeNoGroup {
		t.Errorf("the token of a name with no checkpoint: err = %v, want CodeNoGroup", err)
	}
	if got := srvB.CheckpointedSessions(); len(got) != 0 {
		t.Errorf("CheckpointedSessions after every Close = %q, want none", got)
	}
}

// A row is one algorithm over the shared model and streams.
type row struct {
	algo    core.Algorithm
	base    *models.Model
	streams []stream
	ref     *reference
}

// reference is a row's serial run: per stream and batch, the logits and,
// for a stateful algorithm, the adapter's flattened state after it.
type reference struct {
	logits [][][]float32
	states [][][]serialize.Tensor
}

// reference runs the row serially on first use.
func (r *row) reference(t *testing.T) *reference {
	if r.ref == nil {
		ref := &reference{}
		for _, st := range r.streams {
			logits, states := serial(t, r.base, r.algo, st.batches)
			ref.logits, ref.states = append(ref.logits, logits), append(ref.states, states)
		}
		r.ref = ref
	}
	return r.ref
}

func (r *row) stateful() bool { return r.algo != core.NoAdapt }

// sizes reports the row's image count and its largest request.
func (r *row) sizes() (images, largest int) {
	for _, st := range r.streams {
		for _, x := range st.batches {
			images, largest = images+x.Dim(0), max(largest, x.Dim(0))
		}
	}
	return images, largest
}

// serial feeds xs, in order, through a private adapter over its own copy
// of base: the reference every served stream must equal.
func serial(t *testing.T, base *models.Model, algo core.Algorithm, xs []*tensor.Tensor) (logits [][]float32, states [][]serialize.Tensor) {
	t.Helper()
	a, err := core.New(algo, base.Clone(), core.Config{})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	a.Reset()
	for _, x := range xs {
		logits = append(logits, slices.Clone(a.Process(x).Data))
		if s, ok := a.(core.Stateful); ok {
			_, state, err := core.FlattenState(s.CaptureState())
			if err != nil {
				t.Fatalf("FlattenState: %v", err)
			}
			states = append(states, state)
		}
	}
	return logits, states
}

// A stream is one client's batches in submission order.
type stream struct {
	name    string
	batches []*tensor.Tensor
}

// equivalenceStreams are every row's inputs: two plain corruption streams
// of four batches of 4, and two ScheduledStreams at batch 8 over 10-sample
// phases, so batches straddle phase switches and the last one is short.
func equivalenceStreams(t *testing.T) []stream {
	gen := data.NewGenerator(1)
	drain := func(name string, next func(int) (*tensor.Tensor, []int, bool), batch int) stream {
		st := stream{name: name}
		for x, _, ok := next(batch); ok; x, _, ok = next(batch) {
			st.batches = append(st.batches, x)
		}
		return st
	}
	scheduled := func(seed int64, sc data.Scenario) stream {
		s, err := gen.NewScheduledStream(seed, sc)
		if err != nil {
			t.Fatalf("NewScheduledStream(%s): %v", sc.Name, err)
		}
		return drain(sc.Name, s.Next, 8)
	}
	return []stream{
		drain("gaussian", gen.NewStream(100, 16, data.GaussianNoise, 3).Next, 4),
		drain("fog", gen.NewStream(101, 16, data.Fog, 3).Next, 4),
		scheduled(200, data.AbruptSwitch("switch", []data.Corruption{data.GaussianNoise, data.Fog}, 3, 10)),
		scheduled(201, data.SeverityRamp("ramp", data.Contrast, 2, 4, 10)),
	}
}

// An arrival names batch b of stream s.
type arrival struct{ s, b int }

// A cell is one row served along one axis.
type cell struct {
	*row
	ctx  context.Context
	want [][][]float32 // per stream and batch, what its response must equal

	mu   sync.Mutex
	seen map[arrival]bool
}

// server starts a server with one group serving the row on the shared
// pool; it closes when the cell ends.
func (c *cell) server(t *testing.T, cfg serve.Config) (*serve.Server, serve.GroupKey) {
	t.Helper()
	srv := serve.New(cfg)
	t.Cleanup(srv.Close)
	key, err := srv.AddGroup(c.base, c.algo, core.Config{}, replicas)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	return srv, key
}

// arrivals is every batch of the row in a cross-stream order drawn from
// seed, each stream's own batches in order.
func (c *cell) arrivals(seed int64) []arrival {
	var order []arrival
	for s, st := range c.streams {
		for b := range st.batches {
			order = append(order, arrival{s, b})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	next := make([]int, len(c.streams))
	for i, a := range order {
		order[i].b = next[a.s]
		next[a.s]++
	}
	return order
}

// open opens one anonymous stream per stream of the row.
func (c *cell) open(t *testing.T, srv *serve.Server, key serve.GroupKey) []*serve.Stream {
	t.Helper()
	sts := make([]*serve.Stream, len(c.streams))
	for s := range sts {
		var err error
		if sts[s], err = srv.OpenStream(key); err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
	}
	return sts
}

// each runs fn for every stream at once, one goroutine each, and fails the
// cell naming each stream whose fn failed.
func (c *cell) each(t *testing.T, fn func(s int) error) {
	t.Helper()
	errs := make([]error, len(c.streams))
	var wg sync.WaitGroup
	for s := range c.streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = fn(s)
		}()
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Errorf("stream %s: %v", c.streams[s].name, err)
		}
	}
}

// check holds the response to batch b of stream s to the cell's want: its
// shape, then every logit bit for bit. It is safe for concurrent use.
func (c *cell) check(t *testing.T, s, b int, logits *tensor.Tensor) {
	want, name, classes := c.want[s][b], c.streams[s].name, c.base.Classes
	if logits == nil || logits.NDim() != 2 || logits.Dim(1) != classes || len(logits.Data) != len(want) {
		t.Errorf("stream %s batch %d: the logits are not %d×%d", name, b, len(want)/classes, classes)
		return
	}
	if i := firstDiff(want, logits.Data); i >= 0 {
		t.Errorf("stream %s batch %d logit %d: served %v, serial %v (serving must be bit-identical)", name, b, i, logits.Data[i], want[i])
		return
	}
	c.mu.Lock()
	c.seen[arrival{s, b}] = true
	c.mu.Unlock()
}

// covered fails the cell for every batch of want no response matched.
func (c *cell) covered(t *testing.T) {
	for s := range c.want {
		for b := range c.want[s] {
			if !c.seen[arrival{s, b}] {
				t.Errorf("stream %s batch %d: no response matched the serial run", c.streams[s].name, b)
			}
		}
	}
}

// uncoalesced fails a stateful cell whose group served two requests in one
// Process call: a stream's state is restored for one request at a time.
func (c *cell) uncoalesced(t *testing.T, g serve.GroupSnapshot) {
	if _, largest := c.sizes(); c.stateful() && (g.Coalesced != 0 || g.Batches != g.Requests || g.MaxCoalesced > largest) {
		t.Errorf("a stateful group coalesced: %d coalesced requests, %d Process calls for %d requests, MaxCoalesced %d",
			g.Coalesced, g.Batches, g.Requests, g.MaxCoalesced)
	}
}

// firstDiff is the first index at which a and b differ in length or in
// bits, or -1.
func firstDiff(a, b []float32) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// diffState names the first tensor of got that is not want's, in name or
// in bits, or returns "".
func diffState(want, got []serialize.Tensor) string {
	for i := range max(len(want), len(got)) {
		switch {
		case i >= len(want) || i >= len(got):
			return fmt.Sprintf("%d tensors, want %d", len(got), len(want))
		case got[i].Name != want[i].Name:
			return fmt.Sprintf("tensor %d is %q, want %q", i, got[i].Name, want[i].Name)
		case firstDiff(want[i].Data, got[i].Data) >= 0:
			return fmt.Sprintf("%s differs at value %d", want[i].Name, firstDiff(want[i].Data, got[i].Data))
		}
	}
	return ""
}
