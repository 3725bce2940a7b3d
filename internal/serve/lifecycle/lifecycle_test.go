package lifecycle

import (
	"math/rand"
	"testing"
)

type cur = Cursor[string]

// submitted is Submit's two results as one comparable answer.
type submitted struct {
	v      Verdict
	expect uint64
}

func submit(seq uint64) func(*cur) any {
	return func(c *cur) any { v, e := c.Submit(seq); return submitted{v, e} }
}

func dispatch(seq uint64) func(*cur) any {
	return func(c *cur) any { ok, ckpt := c.Dispatch(seq); return [2]bool{ok, ckpt} }
}

// TestTransitions is the reference model: each row is one cursor, one event,
// the answer and the cursor afterwards. The rows walk the serving tier's
// checkpoint-and-idempotency invariants in order (CONTRIBUTING, "Checkpoint
// & idempotency" 1–2).
func TestTransitions(t *testing.T) {
	rows := []struct {
		name   string
		from   cur
		event  func(*cur) any
		answer any
		to     cur
	}{
		// Reserve before admission.
		{"unsequenced submit admits and reserves nothing",
			cur{}, submit(0), submitted{Admit, 0}, cur{}},
		{"next position admits and is reserved before it is queued",
			cur{applied: 2, admitted: 2}, submit(3), submitted{Admit, 0}, cur{applied: 2, admitted: 3}},
		{"pipelined position reserves behind an unsettled one",
			cur{applied: 2, admitted: 3, outstanding: 1}, submit(4), submitted{Admit, 0},
			cur{applied: 2, admitted: 4, outstanding: 1}},
		{"enqueue counts the request outstanding",
			cur{admitted: 1}, func(c *cur) any { c.Enqueued(); return nil }, nil, cur{admitted: 1, outstanding: 1}},

		// Roll back to the applied watermark on shed, cancel and fault.
		{"shed releases the reservation",
			cur{applied: 2, admitted: 3}, func(c *cur) any { return c.AdmissionFailed(3) },
			Cut{above: 3, ExpectSeq: 3}, cur{applied: 2, admitted: 2}},
		{"shed of an earlier position releases the later ones too",
			cur{applied: 2, admitted: 5, outstanding: 2}, func(c *cur) any { return c.AdmissionFailed(3) },
			Cut{above: 3, ExpectSeq: 3}, cur{applied: 2, admitted: 2, outstanding: 2}},
		{"shed of an unsequenced request touches nothing",
			cur{applied: 2, admitted: 4, outstanding: 2}, func(c *cur) any { return c.AdmissionFailed(0) },
			Cut{}, cur{applied: 2, admitted: 4, outstanding: 2}},
		{"cancel of a queued position rolls back below it",
			cur{applied: 2, admitted: 4, outstanding: 2}, func(c *cur) any { return c.CancelQueued(3) },
			Cut{above: 3, ExpectSeq: 3}, cur{applied: 2, admitted: 2, outstanding: 1}},
		{"cancel behind an in-flight batch keeps the in-flight reservation",
			cur{applied: 2, admitted: 4, busy: true, outstanding: 2}, func(c *cur) any { return c.CancelQueued(4) },
			Cut{above: 4, ExpectSeq: 4}, cur{applied: 2, admitted: 3, busy: true, outstanding: 1}},
		{"cancel of an unsequenced request only settles it",
			cur{outstanding: 2}, func(c *cur) any { return c.CancelQueued(0) }, Cut{}, cur{outstanding: 1}},
		{"a stranded request settles without moving the sequence",
			cur{applied: 2, admitted: 2, outstanding: 1}, func(c *cur) any { c.Drop(); return nil }, nil,
			cur{applied: 2, admitted: 2}},
		{"fault returns to the applied watermark and cuts every queued request",
			cur{applied: 2, admitted: 5, busy: true, outstanding: 3, replaySeq: 2, replay: "r2"},
			func(c *cur) any { return c.Fault() },
			Cut{all: true, ExpectSeq: 3}, cur{applied: 2, admitted: 2, outstanding: 2, replaySeq: 2, replay: "r2"}},

		// Duplicate of last-applied replays without touching state.
		{"duplicate of the last applied batch replays",
			cur{applied: 3, admitted: 3, replaySeq: 3, replay: "r3", count: 3}, submit(3), submitted{Replay, 0},
			cur{applied: 3, admitted: 3, replaySeq: 3, replay: "r3", count: 3}},
		{"duplicate older than the replay slot is a gap, not a replay",
			cur{applied: 3, admitted: 3, replaySeq: 3, replay: "r3"}, submit(2), submitted{Gap, 4},
			cur{applied: 3, admitted: 3, replaySeq: 3, replay: "r3"}},

		// Duplicate of an admitted position waits, then takes over after a fault.
		{"duplicate of a queued position waits",
			cur{applied: 2, admitted: 3, outstanding: 1}, submit(3), submitted{Wait, 0},
			cur{applied: 2, admitted: 3, outstanding: 1}},
		{"duplicate of the in-flight position waits",
			cur{applied: 2, admitted: 3, busy: true, outstanding: 1}, submit(3), submitted{Wait, 0},
			cur{applied: 2, admitted: 3, busy: true, outstanding: 1}},
		{"after the original faults the duplicate takes the position over",
			cur{applied: 2, admitted: 2}, submit(3), submitted{Admit, 0}, cur{applied: 2, admitted: 3}},
		{"after the original commits the duplicate replays",
			cur{applied: 3, admitted: 3, replaySeq: 3, replay: "r3", count: 1}, submit(3), submitted{Replay, 0},
			cur{applied: 3, admitted: 3, replaySeq: 3, replay: "r3", count: 1}},

		// A gap carries the next acceptable number: last admitted + 1.
		{"gap ahead names the position after the last admitted one",
			cur{applied: 2, admitted: 3, outstanding: 1}, submit(5), submitted{Gap, 4},
			cur{applied: 2, admitted: 3, outstanding: 1}},
		{"stale position names the same number",
			cur{applied: 2, admitted: 3, outstanding: 1}, submit(1), submitted{Gap, 4},
			cur{applied: 2, admitted: 3, outstanding: 1}},

		// Resume installs the checkpoint's sequence.
		{"resume continues at the checkpoint's sequence",
			Open[string](4), func(c *cur) any { c.Resume(7); return c.Applied() }, uint64(7),
			cur{applied: 7, admitted: 7, every: 4}},
		{"a resumed stream has no replay slot: the checkpointed position is a gap",
			cur{applied: 7, admitted: 7}, submit(7), submitted{Gap, 8}, cur{applied: 7, admitted: 7}},
		{"a resumed stream accepts the next position",
			cur{applied: 7, admitted: 7}, submit(8), submitted{Admit, 0}, cur{applied: 7, admitted: 8}},

		// Dispatch: one in flight, sequenced only at the protocol position.
		{"unsequenced request dispatches when the stream is idle",
			cur{outstanding: 1}, dispatch(0), [2]bool{true, false}, cur{busy: true, outstanding: 1}},
		{"nothing dispatches while a batch is in flight",
			cur{applied: 2, admitted: 4, busy: true, outstanding: 2}, dispatch(4), [2]bool{false, false},
			cur{applied: 2, admitted: 4, busy: true, outstanding: 2}},
		{"a sequenced request ahead of its position stays queued",
			cur{applied: 2, admitted: 4, outstanding: 2}, dispatch(4), [2]bool{false, false},
			cur{applied: 2, admitted: 4, outstanding: 2}},
		{"the next position dispatches",
			cur{applied: 2, admitted: 4, outstanding: 2}, dispatch(3), [2]bool{true, false},
			cur{applied: 2, admitted: 4, busy: true, outstanding: 2}},
		{"an applied position never dispatches again",
			cur{applied: 3, admitted: 3, replaySeq: 3}, dispatch(3), [2]bool{false, false},
			cur{applied: 3, admitted: 3, replaySeq: 3}},
		{"the batch that lands on the cadence is flagged for checkpoint",
			cur{every: 2, count: 1, outstanding: 1}, dispatch(0), [2]bool{true, true},
			cur{every: 2, count: 1, busy: true, outstanding: 1}},
		{"off the cadence it is not",
			cur{every: 2, count: 2, outstanding: 1}, dispatch(0), [2]bool{true, false},
			cur{every: 2, count: 2, busy: true, outstanding: 1}},

		// State advances only on commit.
		{"commit moves the watermark and the replay slot together and opens the gate",
			cur{applied: 2, admitted: 4, busy: true, outstanding: 2, replaySeq: 2, replay: "r2", count: 2},
			func(c *cur) any { c.Commit(3, "r3"); return c.Replayed() }, "r3",
			cur{applied: 3, admitted: 4, outstanding: 1, replaySeq: 3, replay: "r3", count: 3}},
		{"an unsequenced commit leaves the sequence and the replay slot alone",
			cur{applied: 2, admitted: 2, busy: true, outstanding: 1, replaySeq: 2, replay: "r2", count: 2},
			func(c *cur) any { c.Commit(0, "x"); return c.Replayed() }, "r2",
			cur{applied: 2, admitted: 2, replaySeq: 2, replay: "r2", count: 3}},

		// Close reports drained only at zero outstanding.
		{"the first close marks the stream closing",
			cur{outstanding: 1}, func(c *cur) any { return c.Close() }, true, cur{closing: true, outstanding: 1}},
		{"a second close is a no-op",
			cur{closing: true, outstanding: 1}, func(c *cur) any { return c.Close() }, false,
			cur{closing: true, outstanding: 1}},
		{"a closing stream refuses every submit",
			cur{applied: 2, admitted: 2, closing: true}, submit(3), submitted{Closed, 0},
			cur{applied: 2, admitted: 2, closing: true}},
		{"a closing stream refuses a replay too",
			cur{applied: 2, admitted: 2, replaySeq: 2, closing: true}, submit(2), submitted{Closed, 0},
			cur{applied: 2, admitted: 2, replaySeq: 2, closing: true}},
		{"not drained while a request is queued",
			cur{closing: true, outstanding: 1}, func(c *cur) any { return c.Drained() }, false,
			cur{closing: true, outstanding: 1}},
		{"not drained while a batch is in flight",
			cur{closing: true, busy: true, outstanding: 1}, func(c *cur) any { return c.Drained() }, false,
			cur{closing: true, busy: true, outstanding: 1}},
		{"drained once the last admitted request is delivered",
			cur{closing: true, busy: true, outstanding: 1}, func(c *cur) any { c.Commit(0, ""); return c.Drained() }, true,
			cur{closing: true, count: 1}},
	}
	for _, r := range rows {
		c := r.from
		if got := r.event(&c); got != r.answer {
			t.Errorf("%s: answer = %+v, want %+v", r.name, got, r.answer)
		}
		if c != r.to {
			t.Errorf("%s: cursor = %+v, want %+v", r.name, c, r.to)
		}
	}
}

// TestCutKills pins which queued requests each kind of cut strands.
func TestCutKills(t *testing.T) {
	for _, r := range []struct {
		cut  Cut
		seq  uint64
		want bool
	}{
		{Cut{}, 0, false}, {Cut{}, 9, false},
		{Cut{above: 3}, 0, false}, {Cut{above: 3}, 3, false}, {Cut{above: 3}, 4, true},
		{Cut{all: true}, 0, true}, {Cut{all: true}, 1, true},
	} {
		if got := r.cut.Kills(r.seq); got != r.want {
			t.Errorf("%+v.Kills(%d) = %v, want %v", r.cut, r.seq, got, r.want)
		}
	}
}

// TestRandomWalk drives a sequenced stream through seeded random event
// sequences the way the serving shell would — a FIFO of queued sequence
// numbers and at most one in flight — and checks after every event that the
// cursor's books match that queue, that commits land on consecutive
// positions, and that no applied position is ever dispatchable again.
func TestRandomWalk(t *testing.T) {
	const walks, steps = 10000, 40
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < walks; w++ {
		var c cur
		var queue []uint64 // queued sequence numbers, FIFO
		var inflight uint64
		dispatchable := func(seq uint64) bool {
			probe := c
			ok, _ := probe.Dispatch(seq)
			return ok
		}
		cut := func(k Cut) {
			keep := queue[:0]
			for _, s := range queue {
				if k.Kills(s) {
					c.Drop()
				} else {
					keep = append(keep, s)
				}
			}
			queue = keep
		}
		for i := 0; i < steps; i++ {
			switch ev := rng.Intn(100); {
			case ev < 45: // submit somewhere around the frontier
				seq := c.applied + uint64(rng.Intn(int(c.admitted-c.applied)+3))
				if seq == 0 {
					seq = 1
				}
				before := c
				switch v, expect := c.Submit(seq); v {
				case Admit:
					if seq != before.admitted+1 {
						t.Fatalf("walk %d: admitted seq %d out of order from %+v", w, seq, before)
					}
					if rng.Intn(4) == 0 {
						cut(c.AdmissionFailed(seq))
					} else {
						c.Enqueued()
						queue = append(queue, seq)
					}
				case Gap:
					if expect != before.admitted+1 {
						t.Fatalf("walk %d: gap expects %d from %+v", w, expect, before)
					}
					fallthrough
				default:
					if c != before {
						t.Fatalf("walk %d: a refused submit moved the cursor: %+v -> %+v", w, before, c)
					}
				}
			case ev < 55 && len(queue) > 0: // cancel a queued request
				j := rng.Intn(len(queue))
				seq := queue[j]
				queue = append(queue[:j], queue[j+1:]...)
				cut(c.CancelQueued(seq))
			case ev < 80 && inflight == 0: // dispatch the first request the cursor lets go
				for j, seq := range queue {
					if ok, _ := c.Dispatch(seq); ok {
						inflight = seq
						queue = append(queue[:j], queue[j+1:]...)
						break
					}
				}
			case ev < 92 && inflight != 0: // the in-flight batch commits
				if inflight != c.applied+1 {
					t.Fatalf("walk %d: committing seq %d on top of applied %d", w, inflight, c.applied)
				}
				c.Commit(inflight, "r")
				inflight = 0
			case ev < 98 && inflight != 0: // or its replica faults
				cut(c.Fault())
				inflight = 0
			case ev >= 98:
				c.Close()
			}

			flying := 0
			if inflight != 0 {
				flying = 1
				if dispatchable(c.applied+1) || dispatchable(0) {
					t.Fatalf("walk %d: a second batch is dispatchable while %d is in flight", w, inflight)
				}
			}
			if c.applied > c.admitted {
				t.Fatalf("walk %d step %d: applied %d > admitted %d", w, i, c.applied, c.admitted)
			}
			if got, want := int(c.admitted-c.applied), len(queue)+flying; got != want {
				t.Fatalf("walk %d step %d: admitted-applied = %d, queued+in-flight = %d (%+v, queue %v)", w, i, got, want, c, queue)
			}
			if c.outstanding != len(queue)+flying || c.Drained() != (len(queue)+flying == 0) {
				t.Fatalf("walk %d step %d: outstanding %d, queued+in-flight %d", w, i, c.outstanding, len(queue)+flying)
			}
			for s := uint64(1); s <= c.applied; s++ {
				if dispatchable(s) {
					t.Fatalf("walk %d step %d: applied seq %d is dispatchable again", w, i, s)
				}
			}
		}
	}
}
