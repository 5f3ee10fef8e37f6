package core

// The decode stage is the receive direction of the ordered stage
// (orderedstage.go): frames decode off the read goroutines and the
// component thread, so a frame from peer A never waits on decode work for
// peer B, and reach the component in per-(protocol, peer) arrival order.
// Each frame resolves once: a delivered message, a logged decode error, or
// an ignored empty payload.

import (
	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// decodeJob is one inbound frame. payload is owned by the job until run
// hands it to decodeWire, which consumes it on every outcome, or abandon
// recycles it; msg and err are the decode outcome.
type decodeJob struct {
	payload []byte
	msg     Msg
	err     error
}

type decodeStage struct {
	*orderedStage[laneKey, decodeJob]
	n *Network
}

func newDecodeStage(n *Network, workers, limit int) *decodeStage {
	st := &decodeStage{n: n}
	st.orderedStage = newOrderedStage[laneKey, decodeJob](st, workers, limit)
	return st
}

// submit sequences one inbound frame. It is the transport endpoint's
// OnMessage callback: ownership of the pooled payload passes to the stage
// here. Frames sharing a From arrive from one read goroutine, so lane
// order IS wire order; at the inflight bound that goroutine decodes
// inline, stalling only its own connection.
func (st *decodeStage) submit(from transport.From, payload []byte) {
	st.orderedStage.submit(laneKey{proto: from.Proto, dest: from.Peer}, decodeJob{payload: payload})
}

func (st *decodeStage) run(j *decodeJob) {
	j.msg, j.err = st.n.decodeWire(j.payload)
	j.payload = nil
}

func (st *decodeStage) abandon(j *decodeJob) {
	bufpool.Put(j.payload)
	j.payload, j.err = nil, errNetworkStopped
}

// release hands the decoded message into component context (SelfTrigger
// is goroutine-safe and a no-op on a halted component), or surfaces the
// decode error. Empty payloads decode to (nil, nil) and are ignored. Close
// runs after the endpoint closes, so no read loop submits into the
// teardown; messages already decoded land in a halting component's
// mailbox or are dropped there, never delivered twice.
func (st *decodeStage) release(j *decodeJob) {
	if j.err != nil {
		if j.err != errNetworkStopped {
			st.n.cfg.Logger.Warn("core: dropping inbound message", "err", j.err)
		}
		return
	}
	if j.msg == nil {
		return
	}
	st.n.comp.SelfTrigger(inbound{msg: j.msg})
}
