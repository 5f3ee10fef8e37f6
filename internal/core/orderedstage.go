package core

// The ordered stage is the one parallel pipeline stage both wire
// directions instantiate, as a Netty pipeline reuses one handler
// abstraction per direction: it lifts a direction's dominant per-message
// CPU cost — encode on send (codecstage.go), decodeWire on receive
// (decodestage.go) — off the producing thread (the Network component's
// single thread, a transport read goroutine) onto a bounded
// kompics.WorkPool. Both directions keep the same guarantees:
//
//   - FIFO per key: a per-key lane — (protocol, destination) on send,
//     (protocol, peer) on receive — holds each finished job until every
//     earlier job on the key has been released. Keys release
//     independently, so one slow job never head-of-line-blocks the
//     fan-out or the fan-in.
//   - Exactly once: every job resolves through one release, after its run
//     or, when the stage closed first, after abandon. Submit and close
//     fail stragglers through one idempotent failUndone.
//   - Buffer ownership: a job owns its pooled payload until run hands it
//     on (to Endpoint.SendQoS on release, or to decodeWire) or abandon
//     recycles it.
//
// Backpressure: at the inflight bound the submitter runs the job inline.
// The job still rides its lane, so order holds, and only the saturating
// submitter stalls — the component thread on send, one connection on
// receive (exactly the flow control a stream transport wants).

import (
	"errors"
	"sync"

	"github.com/kompics/kompicsmessaging-go/internal/kompics"
)

// errNetworkStopped fails jobs whose run or release raced the network
// component stopping.
var errNetworkStopped = errors.New("core: network stopped")

// laneKey identifies a lane in either direction. dest is the final
// socket address on send (UDT port shift already applied by sendMsg) and
// the peer address on receive.
type laneKey struct {
	proto Transport
	dest  string
}

// stageHooks is what a direction supplies for its job type J: run does
// the work on a worker (or inline) and stores the outcome in the job;
// release resolves it in per-key submission order; abandon, instead of
// run, records that the job never ran and recycles what it owns. Only
// abandon runs under a stage lock (the lane's), so it must not block.
type stageHooks[J any] interface {
	run(j *J)
	release(j *J)
	abandon(j *J)
}

// stageJob is one job's trip through the stage, released by whichever
// goroutine completes its lane's head. done and inline are set under
// lane.mu; an inline job is run by its submitter, so close leaves it to
// finish instead of abandoning it mid-run.
type stageJob[J any] struct {
	job          J
	lane         *stageLane[J]
	done, inline bool
}

// stageLane is the per-key sequencer: jobs in submission order, popped
// from the head only when done. One lane exists per key for the stage's
// lifetime, mirroring the transport's conservative channel retention.
type stageLane[J any] struct {
	mu   sync.Mutex //kmlint:guarded
	jobs []*stageJob[J]
	// draining serialises release: exactly one goroutine pops ready heads
	// at a time, so release sees submission order even though workers
	// finish out of order.
	draining bool
}

// orderedStage owns the worker pool and the lane table. One stage lives
// per Network start and direction (like the Endpoint, it is single-use).
type orderedStage[K comparable, J any] struct {
	hooks stageHooks[J]
	pool  *kompics.WorkPool[*stageJob[J]]
	limit int

	mu     sync.Mutex //kmlint:guarded
	lanes  map[K]*stageLane[J]
	closed bool
	// inflight counts submitted-but-unreleased jobs; at limit the
	// submitter runs the job inline, which bounds the pool's queue.
	inflight int
}

func newOrderedStage[K comparable, J any](hooks stageHooks[J], workers, limit int) *orderedStage[K, J] {
	st := &orderedStage[K, J]{hooks: hooks, limit: limit, lanes: make(map[K]*stageLane[J])}
	st.pool = kompics.NewWorkPool(workers, st.work)
	return st
}

// submit sequences one job on key's lane; it allocates the job's only
// heap object. Submissions for one key must come from one goroutine at a
// time, so lane append order IS submission order.
func (st *orderedStage[K, J]) submit(key K, job J) {
	e := &stageJob[J]{job: job}
	st.mu.Lock()
	lane := st.lanes[key]
	if lane == nil {
		lane = &stageLane[J]{}
		st.lanes[key] = lane
	}
	closed := st.closed
	saturated := st.inflight >= st.limit && !closed
	st.inflight++
	st.mu.Unlock()

	e.lane, e.inline = lane, saturated
	lane.mu.Lock()
	lane.jobs = append(lane.jobs, e)
	lane.mu.Unlock()

	if saturated {
		st.work(e)
	} else if closed || !st.pool.Submit(e) {
		// The stage is closing: its close may have listed the lanes
		// before this one existed, or failed this lane already.
		st.failUndone(e)
	}
}

// work runs one job and releases every ready lane head. It is the
// WorkPool run function (never requeues) and the inline path.
func (st *orderedStage[K, J]) work(e *stageJob[J]) bool {
	st.hooks.run(&e.job)
	lane := e.lane
	lane.mu.Lock()
	e.done = true
	lane.mu.Unlock()
	st.drain(lane)
	return false
}

// failUndone resolves a job that will never run and re-drains its lane.
// Idempotent against the submit and close paths both failing the same
// job: they mark under lane.mu and only the first abandons it. A job its
// submitter runs inline is left to finish.
func (st *orderedStage[K, J]) failUndone(e *stageJob[J]) {
	lane := e.lane
	lane.mu.Lock()
	if !e.done && !e.inline {
		st.hooks.abandon(&e.job)
		e.done = true
	}
	lane.mu.Unlock()
	st.drain(lane)
}

// drain releases the lane's done head-run in submission order. The
// draining flag makes the release section single-threaded per lane
// without holding lane.mu across release.
func (st *orderedStage[K, J]) drain(lane *stageLane[J]) {
	lane.mu.Lock()
	if lane.draining {
		lane.mu.Unlock()
		return
	}
	lane.draining = true
	for len(lane.jobs) > 0 && lane.jobs[0].done {
		e := lane.jobs[0]
		lane.jobs = lane.jobs[1:]
		lane.mu.Unlock()
		st.mu.Lock()
		st.inflight--
		st.mu.Unlock()
		st.hooks.release(&e.job)
		lane.mu.Lock()
	}
	if len(lane.jobs) == 0 {
		lane.jobs = nil // unpin the drained backing array
	}
	lane.draining = false
	lane.mu.Unlock()
}

// close stops the workers and abandons the backlog that never ran. Jobs
// already finished still release, and a job's submitter still releases
// an inline run it started before the close.
func (st *orderedStage[K, J]) close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	lanes := make([]*stageLane[J], 0, len(st.lanes))
	for _, l := range st.lanes {
		lanes = append(lanes, l)
	}
	st.mu.Unlock()

	// Workers finish their current jobs (marking them done) and exit;
	// queued-but-unstarted jobs stay pending in their lanes.
	st.pool.Close()
	for _, lane := range lanes {
		lane.mu.Lock()
		pending := append([]*stageJob[J](nil), lane.jobs...)
		lane.mu.Unlock()
		for _, e := range pending {
			st.failUndone(e)
		}
	}
}
