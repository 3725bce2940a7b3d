package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/serve"
	"edgetta/internal/tensor"
)

func testModel() *models.Model {
	return models.PreActResNet18(rand.New(rand.NewSource(42)), models.ReproScale)
}

// genBatches materializes one corruption stream's batches.
func genBatches(seed int64, total, batch int, c data.Corruption, severity int) []*tensor.Tensor {
	gen := data.NewGenerator(1)
	s := gen.NewStream(seed, total, c, severity)
	var out []*tensor.Tensor
	for {
		x, _, ok := s.Next(batch)
		if !ok {
			return out
		}
		out = append(out, x)
	}
}

// serialLogits is the byte-parity reference: a private adapter over its
// own model copy, exactly as in the serve package's tests.
func serialLogits(t *testing.T, base *models.Model, algo core.Algorithm, cfg core.Config, batches []*tensor.Tensor) [][]float32 {
	t.Helper()
	a, err := core.New(algo, base.Clone(), cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	a.Reset()
	var out [][]float32
	for _, x := range batches {
		logits := a.Process(x)
		out = append(out, append([]float32(nil), logits.Data...))
	}
	return out
}

// newTestServer stands up a serve.Server with one group per study
// algorithm behind the HTTP front-end.
func newTestServer(t *testing.T, scfg serve.Config, hcfg Config) (*httptest.Server, *serve.Server) {
	t.Helper()
	base := testModel()
	srv := serve.New(scfg)
	t.Cleanup(srv.Close)
	for _, algo := range core.Algorithms {
		if _, err := srv.AddGroup(base, algo, core.Config{}, 2); err != nil {
			t.Fatalf("AddGroup(%v): %v", algo, err)
		}
	}
	ts := httptest.NewServer(New(srv, hcfg))
	t.Cleanup(ts.Close)
	return ts, srv
}

// TestHTTPServingMatchesSerial is the off-box determinism pin: for every
// study algorithm and both wire codecs, logits fetched over HTTP are
// byte-identical to a serial in-process run over the same batches — the
// wire adds zero numeric perturbation, stateless or stateful.
func TestHTTPServingMatchesSerial(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{QueueCap: 32}, Config{})
	base := testModel()

	for _, algo := range core.Algorithms {
		for _, binary := range []bool{false, true} {
			codec := "json"
			if binary {
				codec = "binary"
			}
			t.Run(algo.String()+"/"+codec, func(t *testing.T) {
				inputs := genBatches(7, 12, 4, data.GaussianNoise, 3)
				c := NewClient(ts.URL, nil)
				c.Binary = binary
				cs, err := c.Open(base.Tag, algo.String())
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				var got [][]float32
				for b, x := range inputs {
					logits, err := cs.Process(x)
					if err != nil {
						t.Fatalf("batch %d: %v", b, err)
					}
					if logits.Dim(0) != x.Dim(0) || logits.Dim(1) != base.Classes {
						t.Fatalf("batch %d: logits shape %v", b, logits.Shape())
					}
					got = append(got, append([]float32(nil), logits.Data...))
				}
				ss, err := cs.Close()
				if err != nil {
					t.Fatalf("Close: %v", err)
				}
				if ss.Requests != len(inputs) {
					t.Errorf("final snapshot Requests = %d, want %d", ss.Requests, len(inputs))
				}
				want := serialLogits(t, base, algo, core.Config{}, inputs)
				for b := range want {
					if len(want[b]) != len(got[b]) {
						t.Fatalf("batch %d: %d logits, want %d", b, len(got[b]), len(want[b]))
					}
					for i := range want[b] {
						if want[b][i] != got[b][i] {
							t.Fatalf("batch %d logit %d: HTTP %v, serial %v (wire must be byte-identical)",
								b, i, got[b][i], want[b][i])
						}
					}
				}
			})
		}
	}
}

// TestHTTPConcurrentStatefulSessions drives several stateful sessions over
// HTTP at once: per-session isolation must hold exactly as in-process.
func TestHTTPConcurrentStatefulSessions(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{QueueCap: 64}, Config{})
	base := testModel()
	const nSessions = 4

	type result struct {
		inputs []*tensor.Tensor
		got    [][]float32
		err    error
	}
	results := make([]result, nSessions)
	done := make(chan int, nSessions)
	for i := 0; i < nSessions; i++ {
		go func(i int) {
			defer func() { done <- i }()
			r := &results[i]
			r.inputs = genBatches(int64(100+i), 8, 4, data.AllCorruptions[i%len(data.AllCorruptions)], 3)
			c := NewClient(ts.URL, nil)
			c.Binary = i%2 == 0
			cs, err := c.Open(base.Tag, "bnnorm")
			if err != nil {
				r.err = err
				return
			}
			defer cs.Close()
			for _, x := range r.inputs {
				logits, err := cs.Process(x)
				if err != nil {
					r.err = err
					return
				}
				r.got = append(r.got, append([]float32(nil), logits.Data...))
			}
		}(i)
	}
	for range results {
		<-done
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("session %d: %v", i, r.err)
		}
		want := serialLogits(t, base, core.BNNorm, core.Config{}, r.inputs)
		for b := range want {
			for j := range want[b] {
				if want[b][j] != r.got[b][j] {
					t.Fatalf("session %d batch %d logit %d: HTTP %v, serial %v", i, b, j, r.got[b][j], want[b][j])
				}
			}
		}
	}
}

// TestHTTPErrorMapping pins the table-driven status mapping and the error
// payload round-trip through the client.
func TestHTTPErrorMapping(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{QueueCap: 4}, Config{})
	base := testModel()
	c := NewClient(ts.URL, nil)

	// Unknown algorithm in open: 400 before any session exists.
	if _, err := c.Open(base.Tag, "tent-but-misspelled"); err == nil {
		t.Error("open with bad algo succeeded")
	}
	// Unknown group: 404 with the typed no_group code.
	_, err := c.Open("NO-SUCH-MODEL", "noadapt")
	var se *serve.Error
	if !errors.As(err, &se) || se.Code != serve.CodeNoGroup {
		t.Errorf("open unknown model: err = %v, want CodeNoGroup", err)
	}
	// Unknown session token: 404.
	resp, err := http.Post(ts.URL+"/v1/streams/deadbeef/submit", "application/json",
		bytes.NewReader([]byte(`{"shape":[1],"data":[0]}`)))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp.StatusCode)
	}
	// Malformed batch: 400 bad_request from the serve taxonomy.
	cs, err := c.Open(base.Tag, "noadapt")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := cs.Process(tensor.New(2, 3)); err == nil {
		t.Error("rank-2 submit succeeded")
	} else if !errors.As(err, &se) || se.Code != serve.CodeBadRequest {
		t.Errorf("rank-2 submit: err = %v, want CodeBadRequest", err)
	}
	// Closed session: 410 Gone with the typed stream_closed code — the
	// server forgets the token, so in practice a reused token is 404;
	// exercise the serve-level path via a race-free double close.
	if _, err := cs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := cs.Process(tensor.New(1, base.InC, base.InHW, base.InHW)); err == nil {
		t.Error("submit on closed session succeeded")
	}
}

// TestHTTPOverloadSheds floods a shed-admission server through the front
// end and pins the 429 contract: status 429, a Retry-After header of at
// least one second, and a client-side typed error matching ErrOverloaded
// with the backoff hint — all delivered promptly, not after queue drain.
func TestHTTPOverloadSheds(t *testing.T) {
	base := testModel()
	srv := serve.New(serve.Config{QueueCap: 2, Admission: serve.AdmitShed})
	defer srv.Close()
	// Stateful group, one session: its requests serialize, so concurrent
	// arrivals pile into the 2-deep queue no matter how fast the replica
	// is — the flood below must draw rejections.
	if _, err := srv.AddGroup(base, core.BNOpt, core.Config{Steps: 2}, 1); err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	ts := httptest.NewServer(New(srv, Config{}))
	defer ts.Close()

	c := NewClient(ts.URL, nil)
	cs, err := c.Open(base.Tag, "bnopt")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	x := tensor.New(4, base.InC, base.InHW, base.InHW)

	// Saturate with raw pipelined requests (the client helper is
	// synchronous), then observe a rejection.
	const inFlight = 24
	type outcome struct {
		status     int
		retryAfter string
		body       []byte
	}
	outcomes := make(chan outcome, inFlight)
	payload, _ := json.Marshal(batchJSON{Shape: x.Shape(), Data: x.Data})
	for i := 0; i < inFlight; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/streams/"+cs.Session+"/submit", "application/json", bytes.NewReader(payload))
			if err != nil {
				outcomes <- outcome{status: -1}
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			outcomes <- outcome{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: buf.Bytes()}
		}()
	}
	var served, shed int
	start := time.Now()
	for i := 0; i < inFlight; i++ {
		o := <-outcomes
		switch o.status {
		case http.StatusOK:
			served++
		case http.StatusTooManyRequests:
			shed++
			if secs, err := strconv.Atoi(o.retryAfter); err != nil || secs < 1 {
				t.Errorf("429 Retry-After = %q, want integer seconds >= 1", o.retryAfter)
			}
			var p errorPayload
			if err := json.Unmarshal(o.body, &p); err != nil || p.Error.Code != "overloaded" {
				t.Errorf("429 body = %s, want overloaded error payload", o.body)
			}
		default:
			t.Errorf("unexpected status %d: %s", o.status, o.body)
		}
	}
	if shed == 0 {
		t.Fatalf("no 429s: %d requests against a 2-deep queue on 1 replica", inFlight)
	}
	if served+shed != inFlight {
		t.Fatalf("accounting: %d served + %d shed != %d sent", served, shed, inFlight)
	}
	// Rejections must be immediate; generous bound for slow CI.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("overload round took %v", elapsed)
	}

	// The typed error must round-trip through the client too: overload
	// again with pipelined raw requests and race a client call in.
	for i := 0; i < inFlight; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/streams/"+cs.Session+"/submit", "application/json", bytes.NewReader(payload))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	sawTyped := false
	for i := 0; i < inFlight && !sawTyped; i++ {
		_, err := cs.Process(x)
		if err == nil {
			continue
		}
		if !errors.Is(err, serve.ErrOverloaded) {
			t.Fatalf("client error = %v, want ErrOverloaded", err)
		}
		var se *serve.Error
		errors.As(err, &se)
		if se.RetryAfter <= 0 {
			t.Errorf("client-side RetryAfter = %v, want > 0", se.RetryAfter)
		}
		if se.QueueDepth != 2 {
			t.Errorf("client-side QueueDepth = %d, want 2", se.QueueDepth)
		}
		sawTyped = true
	}
	if !sawTyped {
		t.Log("no client-side rejection observed this round (queue drained between probes); header contract was pinned above")
	}
}

// TestHTTPServerSideTimeout pins the server-side deadline: with a tiny
// Timeout and a slow queue, a submit comes back 504 with the typed
// deadline error instead of hanging.
func TestHTTPServerSideTimeout(t *testing.T) {
	base := testModel()
	gate := &holdInjector{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := serve.New(serve.Config{QueueCap: 32, Injector: gate})
	defer srv.Close()
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release()
	if _, err := srv.AddGroup(base, core.BNOpt, core.Config{Steps: 4}, 1); err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	ts := httptest.NewServer(New(srv, Config{Timeout: 5 * time.Millisecond}))
	defer ts.Close()

	c := NewClient(ts.URL, nil)
	// Two sessions: the first's batch holds the only replica at the
	// injection gate until the second has queued past its 5ms server-side
	// deadline, however fast the kernels run.
	csA, err := c.Open(base.Tag, "bnopt")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	csB, err := c.Open(base.Tag, "bnopt")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	slowDone := make(chan error, 1)
	go func() {
		_, err := csA.Process(tensor.New(2, base.InC, base.InHW, base.InHW))
		slowDone <- err
	}()
	<-gate.entered
	_, err = csB.Process(tensor.New(2, base.InC, base.InHW, base.InHW))
	var se *serve.Error
	if !errors.As(err, &se) || se.Code != serve.CodeDeadline {
		t.Fatalf("queued submit past server deadline: err = %v, want CodeDeadline", err)
	}
	release()
	// The held request exceeds 5ms too — it was dispatched, but the
	// handler stops waiting at the deadline; either way it must be typed.
	if err := <-slowDone; err != nil {
		if !errors.As(err, &se) || se.Code != serve.CodeDeadline {
			t.Fatalf("slow request: err = %v, want nil or CodeDeadline", err)
		}
	}
}

// holdInjector holds every dispatch until release is closed, announcing
// the first on entered.
type holdInjector struct {
	entered chan struct{}
	release chan struct{}
}

func (h *holdInjector) ProcessFault(string, int) serve.Fault {
	select {
	case h.entered <- struct{}{}:
	default:
	}
	<-h.release
	return serve.Fault{}
}

func (h *holdInjector) CheckpointFault(string, uint64) error { return nil }

// TestClientBoundsSuccessBodies: the server bounds what it reads of a
// submit; the client must hold a 200 response to the same bound. A peer
// answering every call with a body one byte past maxBodyBytes fails each
// client method, and almost none of that body crosses the wire.
func TestClientBoundsSuccessBodies(t *testing.T) {
	var sent atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Edgetta-Shape", strconv.Itoa((maxBodyBytes+1)/4))
		w.Header().Set("Content-Length", strconv.Itoa(maxBodyBytes+1))
		chunk := make([]byte, 64<<10)
		for sent.Load() <= maxBodyBytes {
			n, err := w.Write(chunk)
			sent.Add(int64(n))
			if err != nil {
				return
			}
		}
	}))
	c := NewClient(ts.URL, nil)
	c.Binary = true
	cs := &ClientStream{c: c, Session: "s"}
	if _, err := cs.Process(tensor.New(1, 1)); err == nil {
		t.Error("Process accepted an oversized response")
	}
	if _, err := cs.Snapshot(); err == nil {
		t.Error("ClientStream.Snapshot accepted an oversized response")
	}
	if _, err := cs.Close(); err == nil {
		t.Error("Close accepted an oversized response")
	}
	if _, err := c.Snapshot(); err == nil {
		t.Error("Client.Snapshot accepted an oversized response")
	}
	if _, err := c.Open("m", "noadapt"); err == nil {
		t.Error("Open accepted an oversized response")
	}
	ts.Close() // waits for the handlers, so sent is final
	if n := sent.Load(); n > maxBodyBytes/2 {
		t.Errorf("server got %d bytes out across five refused calls; the client drained them", n)
	}
}

// FuzzReadBatch feeds the wire decoder hostile bytes in either codec: a
// Content-Type, an X-Edgetta-Shape value and a body. readBatch must never
// panic; a tensor it accepts holds exactly as many values as its shape;
// and that tensor survives encodeBatch then readBatch bit for bit, in the
// binary codec always and in JSON whenever its values are finite (JSON
// has no spelling for NaN or Inf). The seed corpus is in
// testdata/fuzz/FuzzReadBatch.
func FuzzReadBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, binary bool, shape string, body []byte) {
		h := http.Header{}
		h.Set("Content-Type", "application/json")
		if binary {
			h.Set("Content-Type", "application/octet-stream")
		}
		h.Set("X-Edgetta-Shape", shape)
		x, err := readBatch(h, bytes.NewReader(body), int64(len(body)))
		if err != nil {
			return
		}
		n := 1
		for _, d := range x.Shape() {
			n *= d
		}
		if n != len(x.Data) {
			t.Fatalf("accepted shape %v with %d values", x.Shape(), len(x.Data))
		}
		finite := true
		for _, v := range x.Data {
			finite = finite && !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
		}
		for _, codec := range []bool{true, false} {
			if !codec && !finite {
				continue
			}
			h := http.Header{}
			raw, err := encodeBatch(h, x, codec)
			if err != nil {
				t.Fatalf("encode (binary=%v): %v", codec, err)
			}
			y, err := readBatch(h, bytes.NewReader(raw), int64(len(raw)))
			if err != nil {
				t.Fatalf("decode own encoding (binary=%v): %v", codec, err)
			}
			if shapeHeader(y.Shape()) != shapeHeader(x.Shape()) || !bitEqual(y.Data, x.Data) {
				t.Fatalf("round trip (binary=%v) changed the batch: shape %v -> %v", codec, x.Shape(), y.Shape())
			}
		}
	})
}

// FuzzSeqHeader holds the X-Edgetta-Seq parse to strconv.ParseUint: it
// never panics, an absent or empty header is 0 (unsequenced), an accepted
// value is the number ParseUint reads, and a refused one — a sign, a space
// inside, overflow — is a 400 from the submit handler before the batch
// reaches the stream, whose request count stays 0.
func FuzzSeqHeader(f *testing.F) {
	srv := serve.New(serve.Config{})
	f.Cleanup(srv.Close)
	base := testModel()
	key := serve.GroupKey{ModelTag: base.Tag, Algo: core.BNNorm}
	if _, err := srv.AddGroup(base, key.Algo, core.Config{}, 1); err != nil {
		f.Fatal(err)
	}
	st, err := srv.OpenStream(key)
	if err != nil {
		f.Fatal(err)
	}
	h := New(srv, Config{})
	batch := http.Header{}
	body, err := encodeBatch(batch, genBatches(1, 1, 1, data.GaussianNoise, 1)[0], true)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, v string) {
		hdr := http.Header{}
		hdr.Set("X-Edgetta-Seq", v)
		seq, err := seqHeader(hdr)
		want, wantErr := strconv.ParseUint(v, 10, 64)
		switch {
		case v == "":
			if seq != 0 || err != nil {
				t.Fatalf("empty header: seq %d, err %v; want unsequenced", seq, err)
			}
			return
		case err == nil:
			if wantErr != nil || seq != want {
				t.Fatalf("accepted %q as %d; ParseUint gives %d, %v", v, seq, want, wantErr)
			}
			return
		case wantErr == nil:
			t.Fatalf("refused %q (%v), which ParseUint reads as %d", v, err, want)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/streams/"+st.Token()+"/submit", bytes.NewReader(body))
		for k, vs := range batch {
			req.Header[k] = vs
		}
		req.Header.Set("X-Edgetta-Seq", v)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "X-Edgetta-Seq") {
			t.Fatalf("submit with X-Edgetta-Seq %q: %d %s; want 400 naming the header", v, rec.Code, rec.Body)
		}
		if n := st.Snapshot().Requests; n != 0 {
			t.Fatalf("submit with X-Edgetta-Seq %q reached the stream: %d requests", v, n)
		}
	})
}
