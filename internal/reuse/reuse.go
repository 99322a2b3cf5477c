// Package reuse is the one store of per-run storage that a finished
// simulation hands back for the next one. A sweep builds a fresh
// machine per cell, and every machine allocates the same tables again:
// cache tag arrays, controller and DRAM bank tables, event records,
// core rings and random sources. Components release them here when a
// run ends, and the next machine's constructors take them out cleared,
// so a reused table starts exactly as a fresh one would.
//
// The store is built on sync.Pool: it is safe for concurrent runs, and
// the collector drops whatever no run has claimed for two cycles, so
// the store never holds more than recent runs released.
package reuse

import (
	"math/rand"
	"sync"
)

// key names one pool: an element type, through a typed nil pointer,
// and a slice length (-1 for single values).
type key struct {
	typ any
	n   int
}

// pools maps a key to its *sync.Pool.
var pools sync.Map

func pool(k key) *sync.Pool {
	if p, ok := pools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := pools.LoadOrStore(k, new(sync.Pool))
	return p.(*sync.Pool)
}

// Take returns a cleared slice of exactly n Ts: one that Put released,
// when one of that length is free, else a fresh one.
func Take[T any](n int) []T {
	if s, _ := pool(key{(*T)(nil), n}).Get().(*[]T); s != nil {
		clear(*s)
		return *s
	}
	return make([]T, n)
}

// Put releases s for a later Take of its element type and length. The
// caller must not use s afterwards. A nil or empty s is ignored.
func Put[T any](s []T) {
	if len(s) == 0 {
		return
	}
	pool(key{(*T)(nil), len(s)}).Put(&s)
}

// TakeOne returns a value that PutOne released, or nil when none is
// free. Unlike Take it does not clear the value: its owner resets it
// on release, where it knows what must survive.
func TakeOne[T any]() *T {
	p, _ := pool(key{(*T)(nil), -1}).Get().(*T)
	return p
}

// PutOne releases p for a later TakeOne. The caller must not use p
// afterwards.
func PutOne[T any](p *T) {
	if p != nil {
		pool(key{(*T)(nil), -1}).Put(p)
	}
}

// NewRand returns rand.New(rand.NewSource(seed)), reusing a released
// generator when one is free. Seed reinitialises a math/rand source
// completely, so a reseeded generator yields exactly the fresh one's
// sequence. Release it with PutOne.
func NewRand(seed int64) *rand.Rand {
	if r := TakeOne[rand.Rand](); r != nil {
		r.Seed(seed)
		return r
	}
	return rand.New(rand.NewSource(seed))
}
