// Package iq provides the instruction queue structure used by the paper's
// machine: two 32-entry queues (integer and floating point) that hold
// instructions from rename until issue, in age order, shared by all threads.
//
// The queue itself is thread-blind — the paper's point is that register
// renaming removes inter-thread dependences, so "a conventional instruction
// queue designed for dynamic scheduling contains all of the functionality
// necessary for simultaneous multithreading". Ready tracking and selection
// live in the core; this package provides ordered storage with the
// operations those mechanisms need: age-ordered insertion, arbitrary
// removal (issue), predicate flush (per-thread squash), and the BIGQ
// variant of Section 5.3 — a doubled queue where only the first
// SearchWindow entries are searchable for issue, the rest acting as an
// overflow buffer from the fetch unit.
package iq

import "fmt"

// Queue is an age-ordered instruction queue. Index 0 is the oldest entry.
type Queue[T any] struct {
	items    []T
	capacity int
	window   int
}

// New creates a queue with the given total capacity and searchable window
// (window == capacity for a conventional queue; window < capacity models
// BIGQ). It panics on invalid sizes — queue shapes are static configuration.
func New[T any](capacity, window int) *Queue[T] {
	if capacity < 1 || window < 1 || window > capacity {
		panic(fmt.Sprintf("iq: invalid capacity %d / window %d", capacity, window))
	}
	return &Queue[T]{
		items:    make([]T, 0, capacity),
		capacity: capacity,
		window:   window,
	}
}

// Len returns the number of entries in the queue.
func (q *Queue[T]) Len() int { return len(q.items) }

// Cap returns the total capacity.
func (q *Queue[T]) Cap() int { return q.capacity }

// Full reports whether the queue cannot accept another entry.
func (q *Queue[T]) Full() bool { return len(q.items) >= q.capacity }

// Push appends an entry (the youngest position); it returns false when the
// queue is full.
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	q.items = append(q.items, v)
	return true
}

// At returns the entry at age position i (0 = oldest).
func (q *Queue[T]) At(i int) T { return q.items[i] }

// Window returns the searchable (issuable) region, oldest first. The
// returned slice aliases the queue; do not retain it across mutations.
func (q *Queue[T]) Window() []T {
	n := len(q.items)
	if n > q.window {
		n = q.window
	}
	return q.items[:n]
}

// All returns every entry, oldest first. The returned slice aliases the
// queue; do not retain it across mutations.
func (q *Queue[T]) All() []T { return q.items }

// RemoveIndices removes the entries at the given positions, which must be
// sorted ascending and in range. Remaining entries keep their age order.
// Entries older than the first removed position are not touched.
func (q *Queue[T]) RemoveIndices(sorted []int) {
	if len(sorted) == 0 {
		return
	}
	first := sorted[0]
	if first < 0 || first >= len(q.items) {
		panic(fmt.Sprintf("iq: RemoveIndices position %d out of range [0,%d)", first, len(q.items)))
	}
	out := q.items[:first]
	k := 0
	for i := first; i < len(q.items); i++ {
		if k < len(sorted) && sorted[k] == i {
			k++
			continue
		}
		out = append(out, q.items[i])
	}
	if k != len(sorted) {
		panic(fmt.Sprintf("iq: RemoveIndices got unsorted or out-of-range indices (consumed %d of %d)", k, len(sorted)))
	}
	clearTail(q.items, len(out))
	q.items = out
}

// clearTail zeroes the abandoned tail so pointer entries do not leak.
func clearTail[T any](s []T, from int) {
	var zero T
	for i := from; i < len(s); i++ {
		s[i] = zero
	}
}
