// Package httpapi is the HTTP front-end over a serve.Server: it takes the
// in-process serving API off-box. Sessions map one-to-one onto serve
// streams — opening a stream returns its token (serve.Stream.Token), and
// every later call names the token — so a remote client gets exactly the
// in-process contract: per-stream adaptation state, submission-order
// processing, drain-then-release close, and byte-identical outputs (the
// wire carries float32 exactly in both codecs). The handler holds no
// state: every call resolves its token in the server's session table
// (serve.Server.Stream), which also resumes a checkpointed session whose
// token outlived the process that issued it.
//
// Endpoints (Go 1.22 pattern routing):
//
//	POST   /v1/streams                   open a stream    {"model":..,"algo":..}
//	POST   /v1/streams/{session}/submit  process a batch  (JSON or binary codec)
//	GET    /v1/streams/{session}         stream snapshot
//	DELETE /v1/streams/{session}         close (drains, then releases)
//	GET    /v1/stats                     server-wide serve.Snapshot
//	GET    /debug/streams                alias of /v1/stats
//
// Submit codecs, chosen by the request Content-Type and mirrored in the
// response:
//
//   - application/json: {"shape":[n,c,h,w],"data":[...]} — Go renders each
//     float32 with its shortest 32-bit representation, which parses back to
//     the identical float32, so the JSON codec is exact.
//   - application/octet-stream: raw little-endian float32 in row-major
//     order, shape in the X-Edgetta-Shape header ("n,c,h,w").
//
// Failures carry the serve error taxonomy on the wire:
// {"error":{"code":..,"message":..,"queue_depth":..,"retry_after_ms":..}}
// with the status mapped table-driven from the code — an AdmitShed
// rejection becomes 429 Too Many Requests with a Retry-After header.
package httpapi

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/serve"
	"edgetta/internal/tensor"
)

// httpStatus is the table mapping the serve error taxonomy to HTTP status
// lines. Every handler routes failures through it; no handler picks a
// status ad hoc for a typed serve error.
var httpStatus = map[serve.Code]int{
	serve.CodeBadRequest:   http.StatusBadRequest,
	serve.CodeNoGroup:      http.StatusNotFound,
	serve.CodeStreamClosed: http.StatusGone,
	serve.CodeOverloaded:   http.StatusTooManyRequests,
	serve.CodeClosed:       http.StatusServiceUnavailable,
	serve.CodeDeadline:     http.StatusGatewayTimeout,
	// 499 is nginx's "client closed request": the requester's context died
	// mid-flight, so nobody is likely reading this status anyway.
	serve.CodeCanceled: 499,
	// A quarantined replica is a transient server-side failure: 503 with
	// Retry-After, and — because the faulted dispatch never advanced the
	// stream's state — safe to retry with the same sequence number.
	serve.CodeReplicaFault: http.StatusServiceUnavailable,
	// A sequence-protocol violation is a client-state conflict; the
	// payload's expect_seq tells the client where to rewind.
	serve.CodeSequence: http.StatusConflict,
}

// Config tunes the front-end.
type Config struct {
	// Timeout is the server-side deadline applied to every submit: a
	// request that cannot be dispatched within it is failed with the
	// typed deadline error (HTTP 504) and its queue slot freed. Zero
	// means 30s; negative disables the server-side deadline (the client
	// disconnecting still cancels the request).
	Timeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Handler is the HTTP front-end. It implements http.Handler.
type Handler struct {
	srv *serve.Server
	cfg Config
	mux *http.ServeMux
}

// New builds the front-end over the server.
func New(srv *serve.Server, cfg Config) *Handler {
	h := &Handler{srv: srv, cfg: cfg.withDefaults(), mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/streams", h.handleOpen)
	h.mux.HandleFunc("POST /v1/streams/{session}/submit", h.handleSubmit)
	h.mux.HandleFunc("GET /v1/streams/{session}", h.handleStreamSnapshot)
	h.mux.HandleFunc("DELETE /v1/streams/{session}", h.handleClose)
	h.mux.HandleFunc("GET /v1/stats", h.handleStats)
	h.mux.HandleFunc("GET /debug/streams", h.handleStats)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// Wire shapes. Field order is fixed, so encodings are deterministic.

type openRequest struct {
	Model string `json:"model"`
	Algo  string `json:"algo"`
	// Session, when non-empty, opens a named recoverable session
	// (serve.Server.OpenSession) instead of an anonymous stream: its state
	// is checkpointed server-side, and reopening the same name resumes
	// from the last checkpoint. A name is unique among the server's open
	// sessions. Named-session tokens are derived from the name (stable
	// across server restarts), not minted randomly — the name is the
	// credential, so clients should pick unguessable ones.
	Session string `json:"session,omitempty"`
}

type openResponse struct {
	Session  string `json:"session"`
	StreamID int    `json:"stream_id"`
	// Resumed reports that the named session continued from a checkpoint;
	// AppliedSeq is then the last applied sequence number — the client
	// resubmits from AppliedSeq+1.
	Resumed    bool   `json:"resumed,omitempty"`
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
}

type batchJSON struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

type wireError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	QueueDepth   int    `json:"queue_depth,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// ExpectSeq accompanies code "sequence": the sequence number the
	// stream will accept next.
	ExpectSeq uint64 `json:"expect_seq,omitempty"`
}

type errorPayload struct {
	Error wireError `json:"error"`
}

// writeError renders any failure as the wire error payload. Typed serve
// errors map through the status table and keep their detail; anything
// else is a front-end-level bad request unless the caller chose a status.
func writeError(w http.ResponseWriter, status int, err error) {
	p := errorPayload{Error: wireError{Code: serve.CodeUnknown.String(), Message: err.Error()}}
	var se *serve.Error
	if errors.As(err, &se) {
		p.Error.Code = se.Code.String()
		p.Error.QueueDepth = se.QueueDepth
		p.Error.RetryAfterMS = se.RetryAfter.Milliseconds()
		p.Error.ExpectSeq = se.ExpectSeq
		if s, ok := httpStatus[se.Code]; ok {
			status = s
		}
		if se.Code == serve.CodeOverloaded || se.Code == serve.CodeReplicaFault {
			// Retry-After is whole seconds by spec; round the hint up so
			// "retry in 40ms" does not truncate to "retry immediately".
			secs := int64(math.Ceil(se.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		}
	}
	writeJSON(w, status, p)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (h *Handler) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req openRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode open request: %w", err))
		return
	}
	algo, err := core.ParseAlgorithm(req.Algo)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, resumed, err := h.srv.OpenSession(serve.GroupKey{ModelTag: req.Model, Algo: algo}, req.Session)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, openResponse{
		Session: st.Token(), StreamID: st.ID(),
		Resumed: resumed, AppliedSeq: st.Snapshot().AppliedSeq,
	})
}

// stream resolves the request's session token. A token that names no
// session and no checkpoint answers 404 unknown_session, a payload
// deliberately outside the serve taxonomy; any other failure of the
// lookup goes through the status table: the server closed is 503, a
// checkpoint for another group 400.
func (h *Handler) stream(w http.ResponseWriter, r *http.Request) (*serve.Stream, bool) {
	st, err := h.srv.Stream(r.PathValue("session"))
	if err == nil {
		return st, true
	}
	if se := (*serve.Error)(nil); errors.As(err, &se) && se.Code == serve.CodeNoGroup {
		writeJSON(w, http.StatusNotFound, errorPayload{Error: wireError{
			Code: "unknown_session", Message: "unknown or closed session token",
		}})
	} else {
		writeError(w, http.StatusInternalServerError, err)
	}
	return nil, false
}

func (h *Handler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	st, ok := h.stream(w, r)
	if !ok {
		return
	}
	seq, err := seqHeader(r.Header)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	x, err := readBatch(r.Header, r.Body, r.ContentLength)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	ctx := r.Context()
	if h.cfg.Timeout > 0 {
		var cancel func()
		ctx, cancel = context.WithTimeout(ctx, h.cfg.Timeout)
		defer cancel()
	}
	logits, err := st.ProcessSeq(ctx, x, seq)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	body, err := encodeBatch(w.Header(), logits, isBinary(r.Header))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// seqHeader reads a submit's X-Edgetta-Seq header: absent or empty is 0,
// unsequenced (serve.Stream.SubmitSeq), and any other value must be a
// decimal uint64 exactly as strconv.ParseUint reads it — no sign, no
// space, no overflow.
func seqHeader(h http.Header) (uint64, error) {
	s := h.Get("X-Edgetta-Seq")
	if s == "" {
		return 0, nil
	}
	seq, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parse X-Edgetta-Seq %q: %w", s, err)
	}
	return seq, nil
}

// maxBodyBytes bounds every body either end of the wire reads: a submit on
// the server, a success response on the client.
const maxBodyBytes = 64 << 20

// readBody reads a body of at most maxBodyBytes. declared is the peer's
// Content-Length (-1 when unknown): one past the bound is refused before a
// byte is read, an undeclared one after maxBodyBytes+1 of them, and a body
// of another length than declared once read.
func readBody(body io.Reader, declared int64) ([]byte, error) {
	if declared > maxBodyBytes {
		return nil, fmt.Errorf("body of %d bytes exceeds %d", declared, maxBodyBytes)
	}
	raw, err := io.ReadAll(io.LimitReader(body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	if len(raw) > maxBodyBytes {
		return nil, fmt.Errorf("body exceeds %d bytes", maxBodyBytes)
	}
	if declared >= 0 && int64(len(raw)) != declared {
		return nil, fmt.Errorf("body of %d bytes, %d declared", len(raw), declared)
	}
	return raw, nil
}

// The batch codecs, one encode/decode pair for both ends of the wire: the
// client encodes a submit and decodes its response, the server the reverse,
// and the headers written by encodeBatch are what readBatch reads the codec
// and shape back from.

func isBinary(h http.Header) bool {
	return strings.HasPrefix(h.Get("Content-Type"), "application/octet-stream")
}

// encodeBatch renders x in the chosen codec and sets the headers that
// describe the body.
func encodeBatch(h http.Header, x *tensor.Tensor, binaryCodec bool) ([]byte, error) {
	if binaryCodec {
		setBinary(h, x)
		return encodeF32(x.Data), nil
	}
	h.Set("Content-Type", "application/json")
	return json.Marshal(batchJSON{Shape: x.Shape(), Data: x.Data})
}

// setBinary sets the headers of a binary body carrying x.
func setBinary(h http.Header, x *tensor.Tensor) {
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Edgetta-Shape", shapeHeader(x.Shape()))
}

// readBatch reads a bounded body and decodes it, in the codec its headers
// name, into a tensor.
func readBatch(h http.Header, body io.Reader, declared int64) (*tensor.Tensor, error) {
	if isBinary(h) {
		shape, err := parseShapeHeader(h.Get("X-Edgetta-Shape"))
		if err != nil {
			return nil, err
		}
		data, err := readF32(body, declared)
		if err != nil {
			return nil, err
		}
		return tensorFrom(data, shape)
	}
	raw, err := readBody(body, declared)
	if err != nil {
		return nil, err
	}
	var b batchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("decode batch: %w", err)
	}
	return tensorFrom(b.Data, b.Shape)
}

// tensorFrom validates shape-against-data and builds the tensor.
func tensorFrom(data []float32, shape []int) (*tensor.Tensor, error) {
	if len(shape) == 0 {
		return nil, errors.New("missing shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return nil, fmt.Errorf("non-positive dimension in shape %v", shape)
		}
		if int64(n) > (1<<31)/int64(d) {
			return nil, fmt.Errorf("shape %v overflows", shape)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("shape %v wants %d values, body carries %d", shape, n, len(data))
	}
	return tensor.FromSlice(data, shape...), nil
}

func (h *Handler) handleStreamSnapshot(w http.ResponseWriter, r *http.Request) {
	st, ok := h.stream(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, st.Snapshot())
}

// handleClose ends the episode, also one whose token outlived a restart:
// the lookup resumes it, so the close deletes its checkpoint.
func (h *Handler) handleClose(w http.ResponseWriter, r *http.Request) {
	st, ok := h.stream(w, r)
	if !ok {
		return
	}
	st.Close() // drains admitted requests, then releases the state
	writeJSON(w, http.StatusOK, st.Snapshot())
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.srv.Snapshot())
}

// Binary codec helpers: little-endian float32, row-major.

func encodeF32(src []float32) []byte {
	out := make([]byte, 4*len(src))
	putF32(out, src)
	return out
}

// putF32 encodes src into the first 4·len(src) bytes of dst.
func putF32(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// getF32 decodes the first 4·len(dst) bytes of src into dst.
func getF32(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

func decodeF32(raw []byte) ([]float32, error) {
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("binary body length %d is not a multiple of 4", len(raw))
	}
	out := make([]float32, len(raw)/4)
	getF32(out, raw)
	return out, nil
}

// chunks lends readF32 the buffer it reads a body through.
var chunks = sync.Pool{New: func() any { return new([16 << 10]byte) }}

// eagerBytes bounds what readF32 allocates for a declared length before
// the bytes arrive: past it the floats grow as they are read, so a
// Content-Length alone cannot make the server allocate maxBodyBytes.
const eagerBytes = 1 << 20

// readF32 reads a binary body. One of declared length is read in one pass
// straight into floats of that length (allocated once up to eagerBytes), a
// pooled chunk at a time, and must be a multiple of 4 bytes, at most
// maxBodyBytes, and end where declared; an undeclared one is read whole
// (readBody), then decoded.
func readF32(body io.Reader, declared int64) ([]float32, error) {
	if declared < 0 {
		raw, err := readBody(body, declared)
		if err != nil {
			return nil, err
		}
		return decodeF32(raw)
	}
	if declared > maxBodyBytes {
		return nil, fmt.Errorf("body of %d bytes exceeds %d", declared, maxBodyBytes)
	}
	if declared%4 != 0 {
		return nil, fmt.Errorf("binary body length %d is not a multiple of 4", declared)
	}
	chunk := chunks.Get().(*[16 << 10]byte)
	defer chunks.Put(chunk)
	floats := int(declared / 4)
	out := make([]float32, 0, min(declared, eagerBytes)/4)
	for len(out) < floats {
		n := min(floats-len(out), len(chunk)/4)
		if _, err := io.ReadFull(body, chunk[:4*n]); err != nil {
			return nil, fmt.Errorf("read body of %d declared bytes: %w", declared, err)
		}
		m := len(out)
		out = slices.Grow(out, n)[:m+n]
		getF32(out[m:], chunk[:])
	}
	if n, _ := io.ReadFull(body, chunk[:1]); n > 0 {
		return nil, fmt.Errorf("body longer than its declared %d bytes", declared)
	}
	return out, nil
}

// f32Reader reads src as the binary codec's bytes, encoding the floats as
// they are read, so a submit goes out with no byte copy of its batch.
type f32Reader struct {
	src []float32
	off int // bytes read
}

// Len returns the number of bytes not yet read.
func (r *f32Reader) Len() int { return 4*len(r.src) - r.off }

func (r *f32Reader) Read(p []byte) (int, error) {
	if r.Len() == 0 {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && r.Len() > 0 {
		i, k := r.off/4, r.off%4
		if k == 0 && len(p)-n >= 4 { // whole floats
			m := min((len(p)-n)/4, len(r.src)-i)
			putF32(p[n:], r.src[i:i+m])
			n, r.off = n+4*m, r.off+4*m
			continue
		}
		var w [4]byte // a float split across reads
		putF32(w[:], r.src[i:i+1])
		c := copy(p[n:], w[k:])
		n, r.off = n+c, r.off+c
	}
	return n, nil
}

func shapeHeader(shape []int) string {
	parts := make([]string, len(shape))
	for i, d := range shape {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, ",")
}

func parseShapeHeader(s string) ([]int, error) {
	if s == "" {
		return nil, errors.New("binary submit requires the X-Edgetta-Shape header")
	}
	parts := strings.Split(s, ",")
	shape := make([]int, len(parts))
	for i, p := range parts {
		d, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("parse X-Edgetta-Shape %q: %w", s, err)
		}
		shape[i] = d
	}
	return shape, nil
}
