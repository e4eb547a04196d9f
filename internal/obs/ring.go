package obs

import (
	"sync"
	"sync/atomic"
)

// ring is the bounded drop-oldest buffer behind both the span-event ring
// (events.go) and the structured log (log.go). A push overwrites the
// oldest entry once the ring is full and never blocks the pusher beyond a
// short copy under the mutex. The on flag mirrors the enabled state so a
// disabled push is one atomic load.
type ring[T any] struct {
	mu   sync.Mutex
	on   atomic.Bool
	buf  []T
	head uint64 // total entries ever pushed
}

// enable starts recording into a fresh, empty ring of the given capacity.
func (r *ring[T]) enable(capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = make([]T, capacity)
	r.head = 0
	r.on.Store(true)
}

// disable stops recording; the contents stay readable.
func (r *ring[T]) disable() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.on.Store(false)
}

// push records v, dropping the oldest entry when the ring is full.
func (r *ring[T]) push(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on.Load() || len(r.buf) == 0 {
		return
	}
	r.buf[r.head%uint64(len(r.buf))] = v
	r.head++
}

// reset empties the ring, keeping its capacity and enabled state.
func (r *ring[T]) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.buf)
	r.head = 0
}

// stats returns the entries ever pushed, those the ring has dropped, and
// its capacity.
func (r *ring[T]) stats() (recorded, dropped uint64, capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := uint64(len(r.buf)); r.head > n {
		dropped = r.head - n
	}
	return r.head, dropped, len(r.buf)
}

// last snapshots the newest n entries in chronological order (oldest
// first); n ≤ 0 returns everything the ring holds.
func (r *ring[T]) last(n int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.buf))
	if size == 0 {
		return nil
	}
	count := min(r.head, size)
	if n > 0 && uint64(n) < count {
		count = uint64(n)
	}
	start := r.head - count
	out := make([]T, 0, count)
	for i := uint64(0); i < count; i++ {
		out = append(out, r.buf[(start+i)%size])
	}
	return out
}
