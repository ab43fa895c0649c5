package core

import "ammboost/internal/store"

// storeQueue runs a node's store writes off the lifecycle goroutine: an
// epoch's append (flush and fsync included), a compaction, the halt
// record. Writes run one at a time, in the order the lifecycle issues
// them, so the writer sees the same call sequence — and the log the same
// bytes — as a lifecycle that wrote inline. Each write runs on a
// goroutine of its own that starts once the previous write has finished,
// so the queue holds no goroutine while it is idle and needs no shutdown;
// the writes in flight stay few because each epoch's sync part waits at
// its mainchain block for that epoch's write.
// The first write that fails poisons the queue: every later write is
// skipped and reports that error, except the halt record, which is still
// attempted. Everything but the writes themselves — issue, join and the
// writer's own use after a join — belongs to the lifecycle goroutine.
type storeQueue struct {
	w *store.Writer
	// tail is the newest write issued (nil before the first).
	tail *storeWrite
}

// storeWrite is one issued write: err is the first failure among it and
// every write issued before it, set before done closes.
type storeWrite struct {
	done chan struct{}
	err  error
}

// issue queues fn behind every write issued before it and returns at
// once. always runs fn even after an earlier write failed.
func (q *storeQueue) issue(always bool, fn func(*store.Writer) error) *storeWrite {
	prev, w := q.tail, q.w
	wr := &storeWrite{done: make(chan struct{})}
	q.tail = wr
	go func() {
		if prev != nil {
			wr.err = prev.wait()
		}
		if wr.err == nil {
			wr.err = fn(w)
		} else if always {
			_ = fn(w)
		}
		close(wr.done)
	}()
	return wr
}

// wait blocks until the write and every write before it has finished,
// and returns the first of their failures.
func (wr *storeWrite) wait() error {
	<-wr.done
	return wr.err
}

// join waits for every write issued so far and returns the first
// failure; afterwards the writer is idle until the next issue.
func (q *storeQueue) join() error {
	if q.tail == nil {
		return nil
	}
	return q.tail.wait()
}
