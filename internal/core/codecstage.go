package core

// The codec stage is the send direction of the ordered stage
// (orderedstage.go), the move the Kompics paper makes with multi-core
// component scheduling [5] and Netty with its multi-loop EventLoopGroup:
// messages encode off the component thread and reach Endpoint.SendQoS in
// per-(protocol, destination) sendMsg order. Local same-host reflection
// never enters the stage: sendMsg keeps it synchronous (§III-B).

import "github.com/kompics/kompicsmessaging-go/internal/bufpool"

// codecJob is one outgoing message. qos is the header's annotation,
// extracted on the component thread and handed to the endpoint with the
// payload; payload and err are the encode outcome.
type codecJob struct {
	msg     Msg
	proto   Transport
	dest    string
	qos     QoS
	id      uint64
	want    bool
	payload []byte
	err     error
}

type codecStage struct {
	*orderedStage[laneKey, codecJob]
	n *Network
}

func newCodecStage(n *Network, workers, limit int) *codecStage {
	st := &codecStage{n: n}
	st.orderedStage = newOrderedStage[laneKey, codecJob](st, workers, limit)
	return st
}

// submit sequences one outgoing message. Called only from the Network
// component thread, so lane order IS sendMsg order; at the inflight bound
// the encode runs inline on that thread.
func (st *codecStage) submit(msg Msg, proto Transport, dest string, qos QoS, id uint64, want bool) {
	st.orderedStage.submit(laneKey{proto: proto, dest: dest},
		codecJob{msg: msg, proto: proto, dest: dest, qos: qos, id: id, want: want})
}

// run encodes from bufpool; the payload's ownership passes to the endpoint
// on release.
func (st *codecStage) run(j *codecJob) { j.payload, j.err = st.n.encode(j.msg) }

func (st *codecStage) abandon(j *codecJob) { j.err = errNetworkStopped }

// release hands the payload to the endpoint (ownership transfers; its
// notify fires exactly once), or surfaces the encode/shutdown error. Close
// runs before the endpoint closes, so jobs already encoded still reach
// Endpoint.Send and fail through its ErrClosed path.
func (st *codecStage) release(j *codecJob) {
	n := st.n
	if j.err != nil {
		n.notify(j.id, j.want, j.err)
		return
	}
	ep := n.endpoint()
	if ep == nil {
		bufpool.Put(j.payload)
		n.notify(j.id, j.want, errNetworkStopped)
		return
	}
	var cb func(error)
	if j.want {
		id := j.id
		cb = func(err error) { n.comp.SelfTrigger(sendOutcome{id: id, err: err}) }
	}
	ep.SendQoS(j.proto, j.dest, j.payload, j.qos, cb)
}
