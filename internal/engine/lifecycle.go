// The engine's lifecycle: one immutable State snapshot behind one atomic
// pointer, written only by transition (the edge table) and consulted by
// every entry point through admit (the admission table).
package engine

import (
	"fmt"
	"time"
)

// Phase is where the engine stands:
// Healthy → Degraded → Healing → Healthy, any → Closing → Closed.
type Phase uint8

const (
	Healthy  Phase = iota // everything is admitted; no trail is parked
	Degraded              // a persist failure proved terminal: ingest refused, finalized trails parked, queries served
	Healing               // Heal's probe succeeded; the workers are re-appending their parked trails
	Closing               // Close began; the workers are flushing their sessions
	Closed                // the persister is closed
)

func (p Phase) String() string {
	return [...]string{"healthy", "degraded", "healing", "closing", "closed"}[p]
}

// State is one snapshot of the lifecycle.
type State struct {
	Phase Phase
	Cause error     // the persist failure behind Degraded (the first one wins); nil once healed
	Since time.Time // when Cause latched, by Config.Clock

	gen uint64 // phase changes so far: tells one Healthy (or Healing) period from the next
}

// degradedErr is what a call refused because of Cause returns.
func (s State) degradedErr() error { return fmt.Errorf("%w: %w", ErrDegraded, s.Cause) }

// event is what transition is asked to record.
type event uint8

const (
	evFail   event = iota // a persist failure proved terminal; err is the cause
	evHeal                // Heal's probe succeeded
	evHealed              // every shard's drain barrier returned; gen names the Healing snapshot it ran under
	evClose               // Close began
	evClosed              // Close closed the persister
)

const refuse Phase = 0xff // the event does not apply in this phase

// edges[ev][from] is the phase ev moves the lifecycle to. One row keeps
// the phase and sets a field: evFail while Closing (the final flush
// failed: the cause latches for Close's last drain).
var edges = [...][Closed + 1]Phase{
	//         Healthy   Degraded  Healing   Closing  Closed
	evFail:   {Degraded, refuse, Degraded, Closing, refuse},
	evHeal:   {refuse, Healing, refuse, refuse, refuse},
	evHealed: {refuse, refuse, Healthy, refuse, refuse},
	evClose:  {Closing, Closing, Closing, refuse, refuse},
	evClosed: {refuse, refuse, refuse, Closed, refuse},
}

// transition is the only writer of e.state: it applies ev if edges allows
// it now and returns the snapshot it installed, else the standing one and
// false. Healthy is entered only by evHealed from the very Healing
// snapshot (gen) whose drain barrier the caller waited out — any failure
// since then changed the phase — and a failure is recorded before its
// trail is parked, so Healthy implies that no shard holds a parked trail.
func (e *Engine) transition(ev event, err error, gen uint64) (State, bool) {
	for {
		cur := e.state.Load()
		to := edges[ev][cur.Phase]
		if to == refuse || ev == evHealed && cur.gen != gen || ev == evFail && to == cur.Phase && cur.Cause != nil {
			return *cur, false
		}
		next := *cur
		next.Phase = to
		if to != cur.Phase {
			next.gen++
		}
		switch ev {
		case evFail:
			next.Cause, next.Since = err, e.clock()
		case evHealed:
			next.Cause, next.Since = nil, time.Time{}
		}
		if e.state.CompareAndSwap(cur, &next) {
			return next, true
		}
	}
}

// op is what admit is asked to let through. The first two are counted in
// e.inflight when admitted; the others only ask for the verdict.
type op uint8

const (
	opIngest  op = iota // Ingest and TryIngestTrail
	opCall              // any other call that needs the engine open: barrier, CompactNow, Heal, a read, Stats
	opSync              // may Sync (and Heal) report success: is everything acked so far durable
	opPersist           // a shard worker appending a finalized trail; refused means park it
)

// admits[o][phase] is the error class op o is refused with in phase.
var admits = [...][Closed + 1]error{
	//          Healthy Degraded   Healing      Closing    Closed
	opIngest:  {nil, ErrDegraded, ErrDegraded, ErrClosed, ErrClosed},
	opCall:    {nil, nil, nil, ErrClosed, ErrClosed},
	opSync:    {nil, ErrDegraded, ErrDegraded, ErrClosed, ErrClosed},
	opPersist: {nil, ErrDegraded, nil, nil, ErrClosed},
}

// admit is the lifecycle's one reader-side gate: it returns the current
// snapshot and, when op o is refused in its phase, the error — ErrClosed,
// or ErrDegraded wrapping the cause. An admitted counted op is registered
// in e.inflight (the caller owes Done) under the lock Close takes to
// enter Closing, so Close's Wait observes every caller admitted before
// it; the lock is NOT held while the caller then parks on a shard queue
// or runs a minutes-long compaction.
func (e *Engine) admit(o op) (State, error) {
	counted := o < opSync
	if counted {
		e.mu.RLock()
		defer e.mu.RUnlock()
	}
	st := *e.state.Load()
	switch admits[o][st.Phase] {
	case ErrClosed:
		return st, ErrClosed
	case ErrDegraded:
		return st, st.degradedErr()
	}
	if counted {
		e.inflight.Add(1)
	}
	return st, nil
}

// State returns the current lifecycle snapshot.
func (e *Engine) State() State { return *e.state.Load() }
