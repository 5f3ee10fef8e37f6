package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The ordered stage's own properties, with fake hooks standing in for
// encode and decode: per-key release order equals submit order however
// the runs complete, and every job resolves exactly once — run or
// abandoned, never both, released once — also when close races the
// submitting goroutine.

type fakeJob struct {
	key, seq int
	// gate, when set, holds the run until the test closes it.
	gate           chan struct{}
	ran, abandoned bool
}

type fakeHooks struct {
	t        *testing.T
	mu       sync.Mutex
	released map[int][]int // key -> seqs in release order
	resolved int
	abandons int
}

func newFakeHooks(t *testing.T) *fakeHooks {
	return &fakeHooks{t: t, released: map[int][]int{}}
}

func (h *fakeHooks) run(j *fakeJob) {
	if j.gate != nil {
		<-j.gate
	} else if j.seq%3 == 0 {
		runtime.Gosched()
	}
	j.ran = true
}

func (h *fakeHooks) abandon(j *fakeJob) { j.abandoned = true }

func (h *fakeHooks) release(j *fakeJob) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if j.ran == j.abandoned {
		h.t.Errorf("key %d seq %d released with ran=%v abandoned=%v; want exactly one",
			j.key, j.seq, j.ran, j.abandoned)
	}
	h.released[j.key] = append(h.released[j.key], j.seq)
	h.resolved++
	if j.abandoned {
		h.abandons++
	}
}

// check asserts every key released seqs 0..n-1 exactly once, in order.
func (h *fakeHooks) check(submitted map[int]int) {
	h.t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	total := 0
	for key, n := range submitted {
		total += n
		got := h.released[key]
		if len(got) != n {
			h.t.Fatalf("key %d: %d releases for %d submitted jobs", key, len(got), n)
		}
		for i, seq := range got {
			if seq != i {
				h.t.Fatalf("key %d position %d: released seq %d, want %d", key, i, seq, i)
			}
		}
	}
	if h.resolved != total {
		h.t.Fatalf("%d releases for %d submitted jobs", h.resolved, total)
	}
}

// TestOrderedStageShuffledCompletion holds every run behind a gate and
// opens the gates in a shuffled order, so workers finish out of
// submission order; the lanes must still release each key in order.
func TestOrderedStageShuffledCompletion(t *testing.T) {
	const keys, perKey = 4, 16
	for seed := int64(1); seed <= 20; seed++ {
		h := newFakeHooks(t)
		// One worker per job: every gated run can be in flight at once.
		st := newOrderedStage[int, fakeJob](h, keys*perKey, keys*perKey)
		var gates []chan struct{}
		submitted := map[int]int{}
		for i := 0; i < keys*perKey; i++ {
			key := i % keys
			gate := make(chan struct{})
			gates = append(gates, gate)
			st.submit(key, fakeJob{key: key, seq: submitted[key], gate: gate})
			submitted[key]++
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
		for _, g := range gates {
			close(g)
		}
		st.pool.AwaitIdle()
		st.close()
		h.check(submitted)
	}
}

// TestOrderedStageCloseRacesSubmit closes the stage while another
// goroutine is still submitting, against an inflight bound small enough
// that some jobs run inline on the submitter. Jobs that lose the race
// resolve through failUndone, from the submit side or the close side,
// and none is released twice or both run and abandoned.
func TestOrderedStageCloseRacesSubmit(t *testing.T) {
	const keys, jobs = 3, 64
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		h := newFakeHooks(t)
		st := newOrderedStage[int, fakeJob](h, 2, 1+rng.Intn(8))
		submitted := map[int]int{}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < jobs; i++ {
				key := i % keys
				st.submit(key, fakeJob{key: key, seq: submitted[key]})
				submitted[key]++
			}
		}()
		for n := rng.Intn(64); n > 0; n-- {
			runtime.Gosched()
		}
		st.close()
		<-done
		h.check(submitted)
	}
}

// TestOrderedStageStraggler pins the submit-side path deterministically:
// a job whose pool submit is refused is abandoned and released once, and
// the later close finds nothing left to fail.
func TestOrderedStageStraggler(t *testing.T) {
	h := newFakeHooks(t)
	st := newOrderedStage[int, fakeJob](h, 1, 8)
	st.pool.Close() // the pool refuses before the stage knows it closed
	st.submit(0, fakeJob{key: 0, seq: 0})
	st.close()
	st.submit(0, fakeJob{key: 0, seq: 1}) // after close: abandoned too
	h.check(map[int]int{0: 2})
	if h.abandons != 2 {
		t.Fatalf("%d of 2 jobs abandoned; neither may run", h.abandons)
	}
}
