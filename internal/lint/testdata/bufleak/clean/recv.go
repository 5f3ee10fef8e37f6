// recv.go covers the receive-path handoff sinks: the transport endpoint's
// deliver funnel and the core decode stage's submit, both documented
// ownership transfers. The analyzer must stay silent.
package clean

import "github.com/kompics/kompicsmessaging-go/internal/bufpool"

// endpointLike mimics transport.Endpoint: deliver funnels every inbound
// payload (framed and datagram alike) into the configured callback,
// forwarding ownership.
type endpointLike struct {
	onMessage func(from string, payload []byte)
}

func (e *endpointLike) deliver(from string, payload []byte) {
	e.onMessage(from, payload)
}

// readLoopShape is readFrames' pattern: a pooled buffer per frame, handed
// off through deliver.
func readLoopShape(e *endpointLike, from string, frame []byte) {
	b := bufpool.Get(len(frame))
	copy(b, frame)
	e.deliver(from, b)
}

// stageLike mimics the ownership shape of core's decodeStage.submit: the
// payload is stored for the lane sequencer (the ordered stage's job
// store), or recycled when the stage has closed.
type stageLike struct {
	closed bool
	lanes  map[string][][]byte
}

func (s *stageLike) submit(from string, payload []byte) {
	if s.closed {
		bufpool.Put(payload)
		return
	}
	s.lanes[from] = append(s.lanes[from], payload)
}

// datagramShape is the UDP reader's pattern: copy the datagram out of the
// socket buffer into a pooled payload and submit it to the stage.
func datagramShape(s *stageLike, from string, dgram []byte) {
	b := bufpool.Get(len(dgram))
	copy(b, dgram)
	s.submit(from, b)
}
