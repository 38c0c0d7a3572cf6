package main

import (
	"container/heap"
	"math/rand"
	"time"
)

// Shared machines drift in speed by tens of percent over minutes, so
// the same build measured twice can differ by more than any useful
// regression bound. The benchmark therefore times, next to every Run,
// a fixed workload of its own that does not touch the program, and
// scales its host times to a machine on which that workload takes
// referenceNominal. A change to the program moves the scaled numbers;
// a change in machine speed largely cancels out.
const (
	referenceEvents  = 100_000
	referenceNominal = 50 * time.Millisecond
)

// refEvent and refHeap mimic a discrete-event simulator's core: small
// heap-allocated events in a priority queue, indexed by a map.
type refEvent struct {
	at int64
	id int
}

type refHeap []*refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// referenceSink keeps the reference's result alive.
var referenceSink int64

// reference runs the fixed workload and returns its host time.
func reference() time.Duration {
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	h := &refHeap{}
	byID := make(map[int]*refEvent)
	for i := 0; i < referenceEvents; i++ {
		e := &refEvent{at: rng.Int63(), id: i}
		heap.Push(h, e)
		byID[i] = e
	}
	var sum int64
	for h.Len() > 0 {
		e := heap.Pop(h).(*refEvent)
		delete(byID, e.id)
		sum += e.at % 7
	}
	referenceSink = sum
	return time.Since(start)
}

// scaled converts a host time measured while the reference took ref
// into the time on the nominal machine.
func scaled(d, ref time.Duration) float64 {
	return d.Seconds() * referenceNominal.Seconds() / ref.Seconds()
}
