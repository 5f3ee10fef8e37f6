// evaluated.go seeds callbacks in the expression positions the shared
// held-lock walker visits for both analyzers: a switch case, a deferred
// call's argument, and a channel operand are all evaluated where they
// stand, under the lock.
package bad

import "sync"

type picker struct {
	mu   sync.Mutex
	pick func() int
	out  func() chan int
	log  func(int)
}

func caseCallback(p *picker, want int) bool {
	p.mu.Lock()
	switch want {
	case p.pick(): // want "callback through function value pick"
		p.mu.Unlock()
		return true
	}
	p.mu.Unlock()
	return false
}

func deferArgCallback(p *picker) {
	p.mu.Lock()
	defer p.log(p.pick()) // want "callback through function value pick"
	p.mu.Unlock()
}

func sendOperandCallback(p *picker) {
	p.mu.Lock()
	p.out() <- 1 // want "channel send while holding p.mu" "callback through function value out"
	p.mu.Unlock()
}
