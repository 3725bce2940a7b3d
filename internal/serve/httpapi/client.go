package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"edgetta/internal/serve"
	"edgetta/internal/tensor"
)

// Client speaks the front-end's wire protocol. It rebuilds typed serve
// errors from error payloads, so remote callers branch on failures with
// errors.Is(err, serve.ErrOverloaded) exactly like in-process callers —
// including the RetryAfter backoff hint on shed rejections. The zero
// Base/HTTP fields are not usable; construct with NewClient.
type Client struct {
	base  string
	http  *http.Client
	retry *retrier
	// Binary selects the octet-stream codec for submissions (exact and
	// compact); false selects JSON (exact too — see the package comment).
	Binary bool
}

// NewClient targets a front-end at base (e.g. "http://127.0.0.1:8080").
// A nil httpClient means http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, http: httpClient}
}

// RetryPolicy is the client's automatic-retry configuration: capped
// exponential backoff with seeded jitter. Retried failures are the
// transient classes — ErrOverloaded and ErrReplicaFault (honoring the
// server's RetryAfter hint as the backoff floor) plus transport-level
// connection errors. Sequence conflicts and every other typed failure
// surface immediately: they need a protocol decision, not patience.
//
// A transport error on a submit is ambiguous — the server may or may not
// have processed the batch — so retrying it is only exactly-once for
// sequenced submits (ProcessSeq), where the server deduplicates by
// sequence number and replays the cached response. Unsequenced retried
// submits are at-least-once.
type RetryPolicy struct {
	// MaxAttempts caps total tries (first attempt included). Default 6.
	MaxAttempts int
	// Base is the first backoff; attempt k waits ~Base*2^k. Default 10ms.
	Base time.Duration
	// Cap bounds a single backoff. Default 2s.
	Cap time.Duration
	// Seed drives the jitter RNG, making the backoff sequence (and thus
	// chaos-test timing) reproducible. The same Seed yields the same
	// jitter series.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 6
	}
	if p.Base <= 0 {
		p.Base = 10 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 2 * time.Second
	}
	return p
}

// WithRetry enables automatic retries on the client and returns it (for
// chaining at construction). Without it the client never retries.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	p = p.withDefaults()
	c.retry = &retrier{p: p, rng: rand.New(rand.NewSource(p.Seed))}
	return c
}

// retrier holds the policy plus the seeded jitter RNG (mutex-guarded:
// one client may retry from many goroutines).
type retrier struct {
	p   RetryPolicy
	mu  sync.Mutex
	rng *rand.Rand
}

// backoff computes the wait before retry number attempt (0-based), taking
// the larger of the exponential schedule and the server's RetryAfter hint,
// capping, then applying jitter in [d/2, d] from the seeded RNG.
func (r *retrier) backoff(attempt int, hint time.Duration) time.Duration {
	d := r.p.Base
	for i := 0; i < attempt && d < r.p.Cap; i++ {
		d *= 2
	}
	if hint > d {
		d = hint
	}
	if d > r.p.Cap {
		d = r.p.Cap
	}
	r.mu.Lock()
	j := d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
	r.mu.Unlock()
	return j
}

// retryable classifies an error as transient. Typed serve errors are
// transient only for the overload and replica-fault classes; any
// transport-level failure (*url.Error from http.Client.Do — refused,
// reset, dropped connections) is treated as transient.
func retryable(err error) bool {
	var se *serve.Error
	if errors.As(err, &se) {
		return se.Code == serve.CodeOverloaded || se.Code == serve.CodeReplicaFault
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// do runs fn under the retry policy. fn must be safe to re-run (it builds
// a fresh request each call). A nil policy runs fn exactly once.
func (c *Client) do(fn func() error) error {
	if c.retry == nil {
		return fn()
	}
	var err error
	for attempt := 0; attempt < c.retry.p.MaxAttempts; attempt++ {
		if err = fn(); err == nil || !retryable(err) {
			return err
		}
		if attempt == c.retry.p.MaxAttempts-1 {
			break
		}
		var hint time.Duration
		var se *serve.Error
		if errors.As(err, &se) {
			hint = se.RetryAfter
		}
		time.Sleep(c.retry.backoff(attempt, hint))
	}
	return err
}

// call is the one round trip every client method makes: send body under
// the headers h, turn any status but 200 into the typed error, and hand the
// response to read — which must bound what it takes (readBody, readBatch).
// body is a *bytes.Reader or an *f32Reader, unread: the transport may send
// it again from its start (Request.GetBody).
func (c *Client) call(method, path string, h http.Header, body io.Reader, read func(*http.Response) error) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if f, ok := body.(*f32Reader); ok { // NewRequest sizes only the standard readers
		req.ContentLength = int64(f.Len())
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(&f32Reader{src: f.src}), nil }
	}
	req.Header = h
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return read(resp)
}

// callJSON is call for the endpoints that answer JSON; in, when non-nil,
// is the JSON request payload.
func (c *Client) callJSON(method, path string, in, out any) error {
	var body []byte
	h := http.Header{}
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
		h.Set("Content-Type", "application/json")
	}
	return c.call(method, path, h, bytes.NewReader(body), func(resp *http.Response) error {
		raw, err := readBody(resp.Body, resp.ContentLength)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("decode %s %s response: %w", method, path, err)
		}
		return nil
	})
}

// ClientStream is the remote counterpart of serve.Stream: one session.
type ClientStream struct {
	c       *Client
	Session string
	ID      int
}

// Open starts a stream on the group serving (model, algo) and returns the
// session handle. The algo spelling is anything core.ParseAlgorithm takes.
func (c *Client) Open(model, algo string) (*ClientStream, error) {
	st, _, err := c.OpenSession(model, algo, "")
	return st, err
}

// OpenSession opens (or resumes) a named recoverable session; the empty
// name opens an anonymous stream. resumeSeq is the last sequence number the
// server already applied: 0 for a fresh session, and the resubmission point
// minus one after a resume (the client continues with SubmitSeq from
// resumeSeq+1). Unlike anonymous streams the session survives server
// restarts when the server checkpoints to disk.
func (c *Client) OpenSession(model, algo, name string) (st *ClientStream, resumeSeq uint64, err error) {
	var or openResponse
	if err := c.callJSON(http.MethodPost, "/v1/streams", openRequest{Model: model, Algo: algo, Session: name}, &or); err != nil {
		return nil, 0, err
	}
	return &ClientStream{c: c, Session: or.Session, ID: or.StreamID}, or.AppliedSeq, nil
}

// Snapshot fetches the server-wide stats payload.
func (c *Client) Snapshot() (serve.Snapshot, error) {
	var snap serve.Snapshot
	err := c.callJSON(http.MethodGet, "/v1/stats", nil, &snap)
	return snap, err
}

// Process submits one batch and blocks for its logits, in the client's
// configured codec. Failures carry the typed serve taxonomy. Under a
// retry policy, transient failures are retried at-least-once; use
// ProcessSeq for exactly-once retries.
func (s *ClientStream) Process(x *tensor.Tensor) (*tensor.Tensor, error) {
	return s.ProcessSeq(x, 0)
}

// ProcessSeq is Process with an idempotency sequence number (1-based,
// contiguous per session; see serve.Stream.SubmitSeq). With a retry
// policy on the client, a submit whose connection drops mid-flight is
// retried with the same sequence number: if the server already adapted on
// the batch it replays the cached response, so no batch is ever applied
// twice. A sequence conflict surfaces as a *serve.Error with
// Code=CodeSequence whose ExpectSeq says where to rewind.
func (s *ClientStream) ProcessSeq(x *tensor.Tensor, seq uint64) (*tensor.Tensor, error) {
	h := http.Header{}
	var body func() io.Reader // a fresh reader per attempt
	if s.c.Binary {
		// Encoded as the transport reads it: no byte copy of the batch.
		setBinary(h, x)
		body = func() io.Reader { return &f32Reader{src: x.Data} }
	} else {
		raw, err := encodeBatch(h, x, false)
		if err != nil {
			return nil, err
		}
		body = func() io.Reader { return bytes.NewReader(raw) }
	}
	if seq > 0 {
		h.Set("X-Edgetta-Seq", strconv.FormatUint(seq, 10))
	}
	var out *tensor.Tensor
	err := s.c.do(func() error {
		return s.c.call(http.MethodPost, s.path()+"/submit", h, body(), func(resp *http.Response) error {
			var err error
			out, err = readBatch(resp.Header, resp.Body, resp.ContentLength)
			return err
		})
	})
	return out, err
}

func (s *ClientStream) path() string { return "/v1/streams/" + s.Session }

// Snapshot fetches the stream's serving metrics.
func (s *ClientStream) Snapshot() (serve.StreamSnapshot, error) {
	var ss serve.StreamSnapshot
	err := s.c.callJSON(http.MethodGet, s.path(), nil, &ss)
	return ss, err
}

// Close ends the session: the server drains the stream's admitted work,
// releases its adaptation state, and returns the final snapshot.
func (s *ClientStream) Close() (serve.StreamSnapshot, error) {
	var ss serve.StreamSnapshot
	err := s.c.callJSON(http.MethodDelete, s.path(), nil, &ss)
	return ss, err
}

// decodeError rebuilds a typed error from a non-200 response. Payloads
// carrying a known serve code produce a *serve.Error that matches the
// package sentinels under errors.Is; anything else degrades to a plain
// error naming the status.
func decodeError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var p errorPayload
	if err := json.Unmarshal(raw, &p); err == nil && p.Error.Code != "" {
		if code := serve.ParseCode(p.Error.Code); code != serve.CodeUnknown {
			return &serve.Error{
				Code:       code,
				Msg:        p.Error.Message,
				QueueDepth: p.Error.QueueDepth,
				RetryAfter: time.Duration(p.Error.RetryAfterMS) * time.Millisecond,
				ExpectSeq:  p.Error.ExpectSeq,
			}
		}
		return fmt.Errorf("%s: %s (%s)", resp.Status, p.Error.Message, p.Error.Code)
	}
	return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
}
