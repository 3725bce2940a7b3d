// Package serve is the batched multi-stream serving front-end: it
// multiplexes many concurrent test-time-adaptation streams over a small
// pool of shared model replicas, turning the repository's one-adapter-per-
// stream benchmark harness into the production shape the ROADMAP targets.
//
// # Replica groups
//
// Requests are compatible only when they target the same algorithm on the
// same model architecture, so the server routes by GroupKey
// (algorithm, model tag). Each group owns a replica pool: deep clones of
// the group's model (models.Model.Clone), each wrapped in its own adapter.
// Replicas never share mutable memory, so Process calls on different
// replicas run concurrently without interference. The pool size is fixed
// when the group is added: a quarantined replica is replaced by a fresh
// clone (see fault.go), and nothing else grows or shrinks the pool.
//
// # Stateless vs. stateful serving
//
// No-Adapt inference is stateless and per-image independent (per-image
// convolution lowering, fixed-order matmul accumulation, per-channel
// eval-mode BatchNorm), so pending requests from any mix of streams are
// coalesced into one batched tensor — up to MaxBatch images, after at most
// MaxLinger of gathering — processed by a single adapter Process call, and
// the output rows are split back to the per-stream responses in request
// order. The coalesced outputs are byte-identical to per-stream runs.
//
// BN-Norm and BN-Opt mutate per-stream state (BatchNorm statistics, affine
// parameters, Adam moments), and their batch-statistics BN couples every
// image in a Process call, so cross-stream coalescing would change results.
// Those groups instead serve with stream affinity plus state swapping: each
// stream owns an AdapterState (kilobytes), and a replica restores the
// stream's state, processes the stream's batch alone, and captures the
// updated state. Requests of one stream are strictly serialized (a stream's
// next request is dispatched only after its previous one completes), which
// preserves the online protocol's order; different streams proceed in
// parallel across replicas. Outputs are byte-identical to serial
// per-stream runs — the package's determinism contract, pinned by tests.
//
// # Scheduling, backpressure and admission
//
// Replica workers call into the model kernels, which parallelize on
// internal/parallel's shared pool; the pool's nested-oversubscription
// guard makes kernel loops issued from busy replicas degrade to inline
// execution, so batch-level concurrency and kernel-level parallelism share
// the same CPU budget instead of multiplying. Backpressure is a bounded
// per-group pending queue with two admission policies: AdmitBlock (the
// default) makes SubmitCtx wait for queue space, honoring the request
// context's cancellation and deadline; AdmitShed rejects immediately with
// a typed ErrOverloaded carrying the queue depth and a suggested
// retry-after — the policy an off-box front-end wants, since a remote
// client would rather get a 429 within its deadline than block. A request
// is cancelable until a replica dispatches it; once processing starts it
// runs to completion (partial adaptation steps are never observable).
//
// # Stream lifecycle
//
// What a stream may do next — admit, replay, wait for a duplicate, report a
// gap, dispatch, drain — is decided in one place, internal/serve/lifecycle:
// a pure per-stream Cursor (applied and admitted sequence, in-flight gate,
// outstanding count, closing flag, replay slot, checkpoint cadence) with
// one method per event and a small verdict per method. This package is the
// shell around it: group.go, fault.go, checkpoint.go and stream.go hold the
// group mutex, move requests between the queue and the replicas, feed the
// cursor events and deliver responses; they never do arithmetic on what
// the cursor holds. Which stream a wire token means is decided in one
// place as well: the Server's session table (Server.Stream), one map from
// token to open stream across every group, so a session name is unique
// server-wide and the HTTP front-end holds no state of its own. A
// group's lifetime counts live in one store, its telemetry handles (a
// server without Config.Registry registers them into a private registry),
// which Snapshot reads back.
package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/models"
	"edgetta/internal/parallel"
	"edgetta/internal/serialize"
	"edgetta/internal/telemetry"
)

// GroupKey identifies a replica group. Requests may share replicas — and,
// for stateless algorithms, Process calls — only within one group.
type GroupKey struct {
	Algo     core.Algorithm
	ModelTag string
}

// String formats the key the way the CLI and logs print it.
func (k GroupKey) String() string { return fmt.Sprintf("%s/%s", k.ModelTag, k.Algo) }

// AdmissionPolicy selects what SubmitCtx does when the group's bounded
// queue is full.
type AdmissionPolicy int

const (
	// AdmitBlock waits for queue space (backpressure by blocking the
	// submitter), honoring the request context while waiting.
	AdmitBlock AdmissionPolicy = iota
	// AdmitShed rejects immediately with ErrOverloaded (carrying the
	// observed queue depth and a suggested retry-after) instead of
	// blocking. Shed requests never consume a replica slot.
	AdmitShed
)

// Config tunes the server's batching, backpressure and fault policy.
// The zero value gets sensible defaults from withDefaults.
type Config struct {
	// MaxBatch caps the images coalesced into one Process call of a
	// stateless group (stateful groups never coalesce across requests).
	// Default 128.
	MaxBatch int
	// MaxLinger is how long an under-full stateless batch waits for more
	// compatible requests before firing anyway. 0 fires as soon as a
	// worker is free, taking whatever is pending.
	MaxLinger time.Duration
	// QueueCap bounds each group's pending request queue. Default 64.
	QueueCap int
	// Admission selects the full-queue behavior: AdmitBlock (default)
	// blocks the submitter, AdmitShed rejects with ErrOverloaded.
	Admission AdmissionPolicy
	// Registry, when non-nil, receives each group's serving metrics
	// (queue depth, pending images, open streams, replica count, lifetime
	// request/image/batch/coalesced/shed/canceled counts, service and e2e
	// latency histograms) labeled by group key. Nil keeps them private to
	// the server: the groups count into a registry nobody else sees, and
	// Snapshot is the only view.
	Registry *telemetry.Registry
	// Watchdog bounds one adapter Process call. A replica that produces no
	// result within the deadline is treated as wedged: it is quarantined
	// and replaced, and its in-flight requests fail with ErrReplicaFault.
	// 0 disables the watchdog (a Process call may take arbitrarily long).
	Watchdog time.Duration
	// Checkpoint tunes per-session adaptation-state checkpointing (see
	// CheckpointConfig). Its Dir turns it on; empty disables it.
	Checkpoint CheckpointConfig
	// Injector, when non-nil, is consulted before every Process call and
	// checkpoint write — the seeded chaos hook (see FaultInjector and
	// internal/serve/chaos). Nil injects nothing. Production servers leave
	// it nil; tests (TestChaosExactlyOnce among them) wire a seeded plan.
	Injector FaultInjector
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 128
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Checkpoint.Every <= 0 {
		c.Checkpoint.Every = 8
	}
	return c
}

// Server multiplexes adaptation streams over replica groups.
type Server struct {
	cfg Config

	mu     sync.Mutex
	groups map[GroupKey]*group
	// streams is the session table: every open stream of every group by
	// its wire token (Stream.Token). A token maps to nil while its stream
	// is being opened: it is reserved before the checkpoint is read and
	// deleted only after Close deleted the checkpoint, so a session name
	// has one open stream server-wide and its file one owner.
	streams map[string]*Stream
	// opened wakes lookups waiting on a reserved token.
	opened *sync.Cond
	closed bool
}

// New constructs an empty server; add replica groups with AddGroup. It
// creates Checkpoint.Dir when one is set and reads nothing from it: a
// checkpoint there is read when its session name is opened (the ttaserve
// -recover path).
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), groups: make(map[GroupKey]*group), streams: make(map[string]*Stream)}
	s.opened = sync.NewCond(&s.mu)
	if s.cfg.Registry == nil {
		s.cfg.Registry = telemetry.NewRegistry()
	}
	if dir := s.cfg.Checkpoint.Dir; dir != "" {
		os.MkdirAll(dir, 0o755)
	}
	return s
}

// AddGroup registers a replica group serving algo over m with acfg. The
// model is deep-cloned once per replica (plus one pristine template clone
// kept for respawns), so the caller's model is never mutated. The replica
// count is fixed for the group's lifetime; only a quarantine and its
// respawn change it, and only for the respawn's duration. replicas <= 0
// defaults to half the parallel pool width (at least 1): replicas trade
// per-call kernel parallelism for batch-level concurrency, and beyond the
// pool width extra replicas only add memory.
func (s *Server) AddGroup(m *models.Model, algo core.Algorithm, acfg core.Config, replicas int) (GroupKey, error) {
	key := GroupKey{Algo: algo, ModelTag: m.Tag}
	if replicas <= 0 {
		replicas = parallel.Workers() / 2
		if replicas < 1 {
			replicas = 1
		}
	}

	g := &group{
		key:          key,
		cfg:          s.cfg,
		algo:         algo,
		acfg:         acfg,
		template:     m.Clone(),
		inC:          m.InC,
		inHW:         m.InHW,
		streams:      make(map[int]*streamState),
		batchHist:    &telemetry.Hist{},
		e2eHist:      &telemetry.Hist{},
		recoveryHist: &telemetry.Hist{},
	}
	g.cond = sync.NewCond(&g.mu)
	reg := s.cfg.Registry
	g.met = newGroupMetrics(reg, key)
	reg.RegisterHist("edgetta_serve_service_seconds", g.batchHist, "group", key.String())
	reg.RegisterHist("edgetta_serve_e2e_seconds", g.e2eHist, "group", key.String())
	reg.RegisterHist("edgetta_serve_recovery_seconds", g.recoveryHist, "group", key.String())
	pool := make([]*replica, replicas)
	for i := range pool {
		r, err := g.newReplica()
		if err != nil {
			return GroupKey{}, err
		}
		pool[i] = r
	}
	if st, ok := pool[0].adapter.(core.Stateful); ok {
		g.stateful = true
		// The episode-start state every new stream begins from. All
		// replicas are byte-identical clones, so replica 0's fresh state
		// restores cleanly onto any of them.
		g.initial = st.CaptureState()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return GroupKey{}, ErrClosed
	}
	if _, dup := s.groups[key]; dup {
		return GroupKey{}, fmt.Errorf("serve: group %s already registered", key)
	}
	s.groups[key] = g
	g.mu.Lock()
	for _, r := range pool {
		g.startReplicaLocked(r)
	}
	g.mu.Unlock()
	return key, nil
}

// OpenStream starts a new independent adaptation episode in the group.
// For stateful groups the stream begins from the episode-start state, as
// if it had a freshly Reset private adapter.
func (s *Server) OpenStream(key GroupKey) (*Stream, error) {
	st, _, err := s.OpenSession(key, "")
	return st, err
}

// OpenSession opens a stream in the group; an empty name opens an
// anonymous one, as OpenStream does. A session name is unique among the
// open streams of the whole server, and when Checkpoint.Dir holds a
// checkpoint for it (from an earlier stream of the name, possibly in an
// earlier process) the session resumes from it — state and sequence
// position — and resumed is true.
func (s *Server) OpenSession(key GroupKey, name string) (*Stream, bool, error) {
	token := sessionToken(name)
	if name == "" {
		token = newToken()
	}
	s.mu.Lock()
	err := s.reserveLocked(token, name)
	s.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	return s.open(token, name, key, false)
}

// Stream returns the open stream a wire token names. A named session's
// token that no open stream holds resumes the session from its
// checkpoint, in the group the checkpoint's header names: the path a
// request takes when the server restarted under its client. Concurrent
// first touches of one token wait for one resume and share its stream. An
// unknown token, or a named one with no checkpoint, fails with
// CodeNoGroup.
func (s *Server) Stream(token string) (*Stream, error) {
	s.mu.Lock()
	st, held := s.streams[token]
	for held && st == nil {
		s.opened.Wait()
		st, held = s.streams[token]
	}
	if held {
		s.mu.Unlock()
		return st, nil
	}
	name, named := tokenName(token)
	if !named || s.cfg.Checkpoint.Dir == "" {
		s.mu.Unlock()
		return nil, errNoSession(token)
	}
	err := s.reserveLocked(token, name)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	st, _, err = s.open(token, name, GroupKey{}, true)
	return st, err
}

// newToken mints an anonymous stream's token: 16 random bytes in hex.
func newToken() string {
	var b [16]byte
	rand.Read(b[:]) // never fails, by its contract
	return hex.EncodeToString(b[:])
}

// sessionToken is a named session's token. It is derived, so it survives
// a restart: the new process resumes the session under a client that kept
// its token. The "n" keeps it apart from the 32-hex minted tokens.
func sessionToken(name string) string { return "n" + hex.EncodeToString([]byte(name)) }

// tokenName inverts sessionToken. Only the spelling sessionToken writes
// names a session, so a name has one token ("n7A" is not "n7a").
func tokenName(token string) (string, bool) {
	name, _ := hex.DecodeString(strings.TrimPrefix(token, "n"))
	return string(name), len(name) > 0 && sessionToken(string(name)) == token
}

// reserveLocked holds token in the session table for an open in progress.
// The caller holds s.mu.
func (s *Server) reserveLocked(token, name string) error {
	if s.closed {
		return ErrClosed
	}
	if _, held := s.streams[token]; held {
		return errBadRequest("session %q already open", name)
	}
	s.streams[token] = nil
	return nil
}

// open opens the stream token is reserved for, then publishes it in the
// session table or, on failure, releases the token. The reservation keeps
// the name, so the checkpoint is read under no lock. With route set the
// group is the one the checkpoint's header names, and only a resumed
// session opens.
func (s *Server) open(token, name string, key GroupKey, route bool) (st *Stream, resumed bool, err error) {
	defer func() {
		s.mu.Lock()
		delete(s.streams, token)
		if err == nil {
			s.streams[token] = st
		}
		s.opened.Broadcast()
		s.mu.Unlock()
	}()
	var h serialize.StateHeader
	var tensors []serialize.Tensor
	found := false
	if route {
		if h, tensors, found = readCheckpoint(ckptPath(s.cfg.Checkpoint.Dir, name)); !found {
			return nil, false, errNoSession(token)
		}
		algo, err := core.ParseAlgorithm(h.Algo)
		if err != nil {
			return nil, false, errBadRequest("checkpoint for session %q: %v", name, err)
		}
		key = GroupKey{Algo: algo, ModelTag: h.Model}
	}
	s.mu.Lock()
	g := s.groups[key]
	s.mu.Unlock()
	if g == nil {
		return nil, false, errNoGroup(key)
	}
	path := g.ckptFile(name)
	if path != "" && !route {
		h, tensors, found = readCheckpoint(path)
	}
	// A checkpoint must be one of this group's states, routing and layout
	// alike, so a stale or foreign one fails loudly instead of
	// mis-restoring.
	var state *core.AdapterState
	switch {
	case path == "" || !found:
		if route { // a stateless group keeps no checkpoint to resume from
			return nil, false, errNoSession(token)
		}
	case h.Model != g.key.ModelTag || h.Algo != g.key.Algo.String():
		return nil, false, errBadRequest("%s: checkpoint belongs to %s/%s", g.key, h.Model, h.Algo)
	default:
		if state, err = core.UnflattenState(g.initial, h.Kind, tensors); err != nil {
			return nil, false, errBadRequest("%s: checkpoint: %v", g.key, err)
		}
	}
	gst, err := g.open(name, state, h.Seq)
	if err != nil {
		return nil, false, err
	}
	return &Stream{srv: s, g: g, st: gst, token: token}, state != nil, nil
}

// Close drains the server: requests already submitted are served, new
// submissions fail with ErrClosed, and Close returns once every replica
// worker (and respawner) has exited.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	groups := s.allGroups()
	for _, g := range groups {
		g.close()
	}
	for _, g := range groups {
		g.wg.Wait()
	}
}

// allGroups lists the registered groups, sorted by key.
func (s *Server) allGroups() []*group {
	s.mu.Lock()
	groups := make([]*group, 0, len(s.groups))
	for _, g := range s.groups {
		groups = append(groups, g)
	}
	s.mu.Unlock()
	sort.Slice(groups, func(i, j int) bool {
		return groups[i].key.String() < groups[j].key.String()
	})
	return groups
}
