package serve

import (
	"encoding/json"
	"sort"

	"edgetta/internal/core"
	"edgetta/internal/telemetry"
)

// Snapshot is the server-wide stats payload: every group, sorted by key.
// It is the one stable wire shape shared by the Go API (Server.Snapshot),
// the HTTP front-end's /debug/streams handler and the load generator —
// there is no other stats shape. Field order is fixed by the struct, so the
// JSON encoding is deterministic.
type Snapshot struct {
	Groups []GroupSnapshot `json:"groups"`
}

// GroupSnapshot is a group's aggregate serving metrics.
type GroupSnapshot struct {
	Key      GroupKey `json:"key"`
	Replicas int      `json:"replicas"`
	Stateful bool     `json:"stateful"`
	// Batches counts adapter Process calls; Requests and Images count the
	// submissions they served. MeanCoalesced = Images/Batches is the
	// effective batching factor.
	Batches  int `json:"batches"`
	Requests int `json:"requests"`
	Images   int `json:"images"`
	// Coalesced is the lifetime count of requests that shared a Process
	// call with at least one other request.
	Coalesced     int     `json:"coalesced"`
	MaxCoalesced  int     `json:"max_coalesced"`
	MeanCoalesced float64 `json:"mean_coalesced"`
	// Shed counts requests rejected at admission (AdmitShed full-queue
	// rejections); Canceled counts requests whose context expired while
	// queued. Neither consumed a replica slot.
	Shed     int `json:"shed"`
	Canceled int `json:"canceled"`
	// QueueDepth is the pending-queue length at snapshot time;
	// MaxQueueDepth its lifetime peak (bounded by QueueCap).
	QueueDepth    int `json:"queue_depth"`
	PendingImages int `json:"pending_images"`
	MaxQueueDepth int `json:"max_queue_depth"`
	// Replica health. Faults counts quarantined replicas (panics plus
	// watchdog kills) over the group's lifetime; Respawns counts the
	// replacements that came up; Respawning is how many replacements are
	// being constructed right now. Replicas already excludes quarantined
	// members, so while the group is open Replicas+Respawning is the pool
	// size AddGroup set.
	Faults     int `json:"faults,omitempty"`
	Respawns   int `json:"respawns,omitempty"`
	Respawning int `json:"respawning,omitempty"`
	// QuarantinedIDs lists the most recently quarantined replica IDs
	// (bounded history, oldest first) for postmortem correlation.
	QuarantinedIDs []int `json:"quarantined_ids,omitempty"`
	// NumericResets counts poisoned adaptation states (NaN/Inf detected
	// after a Process call) that were reset to the episode-start snapshot.
	NumericResets int `json:"numeric_resets,omitempty"`
	// CheckpointWrites/CheckpointFailures count session checkpoint
	// attempts; a failure never fails the request, only the checkpoint.
	CheckpointWrites   int `json:"checkpoint_writes,omitempty"`
	CheckpointFailures int `json:"checkpoint_failures,omitempty"`
	// Recovery is the fault-to-first-served distribution: the time from a
	// replica quarantine to the group's next successfully served batch.
	Recovery telemetry.Summary `json:"recovery"`
	// Service is per-Process wall time; E2E is per-request submit-to-
	// response time (queue wait + service).
	Service telemetry.Summary `json:"service"`
	E2E     telemetry.Summary `json:"e2e"`
	// Streams snapshots every open stream, ascending by ID.
	Streams []StreamSnapshot `json:"streams"`
}

// StreamSnapshot summarizes one stream's served requests.
type StreamSnapshot struct {
	ID int `json:"id"`
	// Name is the session name for recoverable streams (OpenSession);
	// empty for anonymous streams.
	Name     string `json:"name,omitempty"`
	Requests int    `json:"requests"`
	Images   int    `json:"images"`
	// AppliedSeq is the highest applied sequence number for streams using
	// the SubmitSeq idempotency protocol; 0 otherwise.
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	// E2E is the submit-to-response latency distribution.
	E2E telemetry.Summary `json:"e2e"`
}

// groupKeyJSON is GroupKey's wire form: both halves as strings, so the
// payload never leaks the numeric Algorithm enum.
type groupKeyJSON struct {
	Model string `json:"model"`
	Algo  string `json:"algo"`
}

// MarshalJSON renders the key with its algorithm spelled the paper's way.
func (k GroupKey) MarshalJSON() ([]byte, error) {
	return json.Marshal(groupKeyJSON{Model: k.ModelTag, Algo: k.Algo.String()})
}

// UnmarshalJSON parses the wire form, accepting any spelling
// core.ParseAlgorithm does.
func (k *GroupKey) UnmarshalJSON(b []byte) error {
	var w groupKeyJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	algo, err := core.ParseAlgorithm(w.Algo)
	if err != nil {
		return err
	}
	k.ModelTag = w.Model
	k.Algo = algo
	return nil
}

// Snapshot snapshots every group, sorted by key — the payload behind the
// HTTP front-end's /debug/streams endpoint.
func (s *Server) Snapshot() Snapshot {
	groups := s.allGroups()
	out := Snapshot{Groups: make([]GroupSnapshot, 0, len(groups))}
	for _, g := range groups {
		out.Groups = append(out.Groups, g.snapshot())
	}
	return out
}

// GroupSnapshot reports one group's aggregate serving metrics.
func (s *Server) GroupSnapshot(key GroupKey) (GroupSnapshot, error) {
	s.mu.Lock()
	g, ok := s.groups[key]
	s.mu.Unlock()
	if !ok {
		return GroupSnapshot{}, errNoGroup(key)
	}
	return g.snapshot(), nil
}

// snapshot snapshots the group. The group lock covers only the copy of the
// counts — plain fields and the group's metric handles, the one store of
// its lifetime counts; percentile computation (which sorts up to a full
// histogram window) runs after release, against the internally locked
// histograms, so a slow scrape never stalls the dispatch path.
func (g *group) snapshot() GroupSnapshot {
	g.mu.Lock()
	s := GroupSnapshot{
		Key:           g.key,
		Replicas:      len(g.replicas),
		Stateful:      g.stateful,
		Batches:       int(g.met.batches.Value()),
		Requests:      int(g.met.requests.Value()),
		Images:        int(g.met.images.Value()),
		Coalesced:     int(g.met.coalesced.Value()),
		MaxCoalesced:  g.maxCoalesced,
		Shed:          int(g.met.shed.Value()),
		Canceled:      int(g.met.canceled.Value()),
		QueueDepth:    len(g.pending),
		PendingImages: g.pendingImages,
		MaxQueueDepth: g.queueMax,

		Faults:             int(g.met.faults.Value()),
		Respawns:           int(g.met.respawns.Value()),
		Respawning:         int(g.met.respawning.Value()),
		NumericResets:      int(g.met.numericResets.Value()),
		CheckpointWrites:   int(g.met.ckptWrites.Value()),
		CheckpointFailures: int(g.met.ckptFailures.Value()),
	}
	if len(g.quarantinedIDs) > 0 {
		s.QuarantinedIDs = append([]int(nil), g.quarantinedIDs...)
	}
	streams := make([]*streamState, 0, len(g.streams))
	for _, st := range g.streams {
		streams = append(streams, st)
		s.Streams = append(s.Streams, st.countsLocked())
	}
	g.mu.Unlock()

	s.Service = g.batchHist.Summary()
	s.E2E = g.e2eHist.Summary()
	s.Recovery = g.recoveryHist.Summary()
	if s.Batches > 0 {
		s.MeanCoalesced = float64(s.Images) / float64(s.Batches)
	}
	for i, st := range streams {
		s.Streams[i].E2E = st.e2e.Summary()
	}
	sort.Slice(s.Streams, func(i, j int) bool { return s.Streams[i].ID < s.Streams[j].ID })
	return s
}
