// generic.go seeds a shardlock bug in the ordered stage's lane shape: a
// generic struct whose guarded fields are checked in every instantiation,
// including the one a generic method's receiver makes.
package bad

import "sync"

type lane[J any] struct {
	mu   sync.Mutex //kmlint:guarded
	jobs []*J
}

// appendRacy appends to the lane without its lock: both the read and the
// write of jobs are flagged.
func (l *lane[J]) appendRacy(j *J) {
	l.jobs = append(l.jobs, j) // want "guarded field jobs without holding l.mu" "guarded field jobs without holding l.mu"
}

// headRacy reads a concrete instantiation without its lock.
func headRacy(l *lane[int]) *int {
	return l.jobs[0] // want "access to guarded field jobs without holding l.mu"
}

// appendLocked holds the lock from the name's convention; skipped.
func (l *lane[J]) appendLocked(j *J) {
	l.jobs = append(l.jobs, j)
}

// headOf reads a concrete instantiation's head under its lock.
func headOf(l *lane[int]) *int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.jobs) == 0 {
		return nil
	}
	return l.jobs[0]
}
