package parallel

import "sync"

// Scratch[T] is a reusable slice arena for per-invocation temporaries —
// reduction buffers, packed tiles, flattened gradients. Kernels that used to
// allocate a fresh buffer every call Get one here and Put it back, so
// steady-state training epochs stop churning the allocator. Buffers are
// recycled across goroutines (sync.Pool underneath), making it the
// per-worker scratch arena of an OpenMP runtime without tying buffers to
// worker identity.
//
// Get and Put allocate nothing once warm: a pooled buffer travels in a
// *[]T box (a slice stored in an interface would be boxed afresh on
// every Put), and Get hands the emptied box to a second pool for the
// next Put to fill.
//
// The zero value is ready to use.
type Scratch[T any] struct {
	pool  sync.Pool // *[]T, each holding a buffer
	boxes sync.Pool // *[]T, empty
}

// Get returns a length-n slice. Contents are arbitrary — callers that need
// zeroed memory use GetZeroed or clear it themselves.
func (s *Scratch[T]) Get(n int) []T {
	if box, _ := s.pool.Get().(*[]T); box != nil {
		buf := *box
		*box = nil
		s.boxes.Put(box)
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]T, n)
}

// GetZeroed returns a length-n slice with every element set to the zero
// value of T.
func (s *Scratch[T]) GetZeroed(n int) []T {
	buf := s.Get(n)
	var zero T
	for i := range buf {
		buf[i] = zero
	}
	return buf
}

// Put recycles buf for a future Get. The caller must not touch buf after.
func (s *Scratch[T]) Put(buf []T) {
	if cap(buf) == 0 {
		return
	}
	box, _ := s.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = buf[:cap(buf)]
	s.pool.Put(box)
}
