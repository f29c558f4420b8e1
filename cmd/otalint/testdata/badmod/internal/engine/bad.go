// Package engine is a deliberately broken fixture: its import path
// suffix places it in the scope of detclock, lockscope, errsink and
// lockorder, and it commits one violation of each. The otalint smoke test asserts the binary exits nonzero
// here and names every analyzer.
package engine

import (
	"errors"
	"sync"
	"time"
)

type Engine struct {
	mu   sync.Mutex
	gcMu sync.Mutex
}

// Stamp reads the wall clock in a deterministic package: detclock.
func (e *Engine) Stamp() int64 {
	return time.Now().UnixNano()
}

// Tick blocks while holding the mutex: lockscope.
func (e *Engine) Tick() {
	e.mu.Lock()
	defer e.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// flush returns an error Sync drops on the floor: errsink.
func (e *Engine) flush() error {
	return errors.New("flush failed")
}

func (e *Engine) Sync() {
	e.flush()
}

// lockThenGC and gcThenLock acquire the two mutexes in opposite
// orders: lockorder.
func (e *Engine) lockThenGC() {
	e.mu.Lock()
	e.gcMu.Lock()
	e.gcMu.Unlock()
	e.mu.Unlock()
}

func (e *Engine) gcThenLock() {
	e.gcMu.Lock()
	e.mu.Lock()
	e.mu.Unlock()
	e.gcMu.Unlock()
}
