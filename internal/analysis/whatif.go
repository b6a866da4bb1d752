package analysis

import (
	"fmt"

	"procdecomp/internal/trace"
)

// What-if cost modeling: replay the recorded communication DAG under altered
// machine cost parameters to predict how the makespan would move, without
// rerunning the program.
//
// The recorded trace fixes the *structure* of the run — which process
// computed how much between which messages, and which message satisfied
// which receive. Replay keeps that structure and recomputes the clocks:
// compute spans keep their recorded durations, message overheads are
// recomputed from the scenario's costs, and every receive waits for its
// recorded message's new arrival stamp (send completion + scenario latency +
// the recorded transport excess). With unchanged costs the replay reproduces
// the measured makespan exactly — the identity that anchors trust in the
// altered-cost predictions.
//
// Model assumptions, stated honestly:
//   - The program's message structure would not change under the new costs
//     (no re-blocking, no re-decomposition) — predictions are ceilings for
//     *this* program, not for a recompiled one.
//   - Blocked spans (CPU contention under Placement, backpressure under
//     MailboxCap) replay as their recorded durations: the contention pattern
//     is assumed unchanged. Exact for unchanged costs; an approximation
//     otherwise. A blocked span immediately followed by a receive is that
//     receive's wait for the node CPU after its message arrived (a late
//     message records idle → blocked → recv), so it replays after the
//     arrival wait, not before it.
//   - Transport excess beyond the nominal latency (retries, jitter, in-order
//     holds) replays as the recorded per-message surplus.

// Scenario overrides a subset of the cost parameters; nil fields keep the
// recorded calibration.
type Scenario struct {
	Name        string
	SendStartup *uint64
	RecvStartup *uint64
	PerValue    *uint64
	Latency     *uint64
}

// apply resolves the scenario against the recorded costs.
func (s Scenario) apply(c Costs) Costs {
	if s.SendStartup != nil {
		c.SendStartup = *s.SendStartup
	}
	if s.RecvStartup != nil {
		c.RecvStartup = *s.RecvStartup
	}
	if s.PerValue != nil {
		c.PerValue = *s.PerValue
	}
	if s.Latency != nil {
		c.Latency = *s.Latency
	}
	return c
}

// Zero is a convenience pointer for scenario literals.
func Zero() *uint64 { z := uint64(0); return &z }

// CostPtr boxes a cost value for a Scenario field.
func CostPtr(v uint64) *uint64 { return &v }

// DefaultScenarios are the standard speedup-ceiling probes: the recorded
// calibration (the identity check), free message startup, free per-value
// copying (infinite bandwidth), free wire, and free communication.
func DefaultScenarios() []Scenario {
	return []Scenario{
		{Name: "as recorded"},
		{Name: "send startup = 0", SendStartup: Zero()},
		{Name: "startup = 0 (send+recv)", SendStartup: Zero(), RecvStartup: Zero()},
		{Name: "per-value = 0 (infinite bandwidth)", PerValue: Zero()},
		{Name: "latency = 0", Latency: Zero()},
		{Name: "free communication", SendStartup: Zero(), RecvStartup: Zero(), PerValue: Zero(), Latency: Zero()},
	}
}

// replayAction is one step of a process's recorded program, in order.
type replayAction struct {
	kind   trace.Kind // KindCompute (also for blocked), KindSend, KindRecv
	dur    uint64     // compute/blocked: recorded duration; recv: post-arrival CPU wait
	peer   int        // send: destination; recv: source
	seq    uint64     // message edge ID (sender's counter)
	values int
	excess uint64 // send: recorded arrival minus (departure + latency)
}

type msgKey struct {
	src int
	seq uint64
}

// Predict replays the dump under the scenario and returns the predicted
// makespan.
func (d *Dump) Predict(sc Scenario) (uint64, error) {
	costs := sc.apply(d.Costs)

	// Recorded release stamps, for per-message transport excess.
	arrive := map[msgKey]uint64{}
	for p := range d.Events {
		for _, e := range d.Events[p] {
			if e.Kind == trace.KindRecv {
				arrive[msgKey{src: e.Peer, seq: e.Seq}] = e.Arrive
			}
		}
	}

	// Rebuild each process's action list. Idle spans are dropped (waits are
	// recomputed); blocked spans become fixed delays, after the arrival wait
	// when they lead straight into a receive.
	acts := make([][]replayAction, d.Procs)
	for p := range d.Events {
		var postArrival uint64
		for i, e := range d.Events[p] {
			switch e.Kind {
			case trace.KindBlocked:
				if i+1 < len(d.Events[p]) && d.Events[p][i+1].Kind == trace.KindRecv {
					postArrival = e.Dur()
					continue
				}
				acts[p] = append(acts[p], replayAction{kind: trace.KindCompute, dur: e.Dur()})
			case trace.KindCompute:
				acts[p] = append(acts[p], replayAction{kind: trace.KindCompute, dur: e.Dur()})
			case trace.KindSend:
				a := replayAction{kind: trace.KindSend, peer: e.Peer, seq: e.Seq, values: e.Values}
				if rel, ok := arrive[msgKey{src: p, seq: e.Seq}]; ok {
					nominal := e.End + d.Costs.Latency
					if rel > nominal {
						a.excess = rel - nominal
					}
				}
				acts[p] = append(acts[p], a)
			case trace.KindRecv:
				acts[p] = append(acts[p], replayAction{kind: trace.KindRecv, dur: postArrival,
					peer: e.Peer, seq: e.Seq, values: e.Values})
				postArrival = 0
			case trace.KindIdle:
				// recomputed from the matching send
			default:
				return 0, fmt.Errorf("analysis: proc %d has an event of unknown kind %v", p, e.Kind)
			}
		}
	}

	// Event-driven replay: advance each process until it blocks on a message
	// whose send has not executed yet; repeat until quiescent. The recorded
	// run completed, so the dependence structure is acyclic and every round
	// makes progress until all processes finish.
	clocks := make([]uint64, d.Procs)
	idx := make([]int, d.Procs)
	released := map[msgKey]uint64{}
	for {
		progressed, done := false, true
		for p := range acts {
			for idx[p] < len(acts[p]) {
				a := acts[p][idx[p]]
				if a.kind == trace.KindRecv {
					rel, ok := released[msgKey{src: a.peer, seq: a.seq}]
					if !ok {
						break // sender has not reached this message yet
					}
					if rel > clocks[p] {
						clocks[p] = rel
					}
					clocks[p] += a.dur + costs.RecvStartup + uint64(a.values)*costs.PerValue
				} else if a.kind == trace.KindSend {
					clocks[p] += costs.SendStartup + uint64(a.values)*costs.PerValue
					released[msgKey{src: p, seq: a.seq}] = clocks[p] + costs.Latency + a.excess
				} else {
					clocks[p] += a.dur
				}
				idx[p]++
				progressed = true
			}
			if idx[p] < len(acts[p]) {
				done = false
			}
		}
		if done {
			break
		}
		if !progressed {
			return 0, fmt.Errorf("analysis: what-if replay deadlocked (a receive's message has no recorded send)")
		}
	}
	var makespan uint64
	for _, c := range clocks {
		if c > makespan {
			makespan = c
		}
	}
	return makespan, nil
}
