package core

// lane runs work off the lifecycle goroutine, one task at a time, in the
// order the lifecycle issues it. A node has two: the commit stage (an
// epoch's fold, signing and record encoding) and the store writes (an
// epoch's append with its fsync, a compaction, the halt record). Each
// task runs on a goroutine of its own that starts once the previous task
// has finished, so a lane holds no goroutine while it is idle and needs
// no shutdown; the tasks in flight stay few because the lifecycle waits
// on their handles (the commit window, a sync part's mainchain block).
// The first task that fails poisons the lane: every later task is
// skipped and reports that error, except one issued with always, which
// still runs. Issue and join belong to the lifecycle goroutine.
type lane struct {
	// tail is the newest task issued (nil before the first).
	tail *task
}

// task is the handle of one issued task: err is the first failure among
// it and every task issued before it, set before done closes.
type task struct {
	done chan struct{}
	err  error
}

// issue queues fn behind every task issued before it and returns at
// once. always runs fn even after an earlier task failed.
func (l *lane) issue(always bool, fn func() error) *task {
	prev := l.tail
	t := &task{done: make(chan struct{})}
	l.tail = t
	go func() {
		if prev != nil {
			t.err = prev.wait()
		}
		if t.err == nil {
			t.err = fn()
		} else if always {
			_ = fn()
		}
		close(t.done)
	}()
	return t
}

// wait blocks until the task and every task before it has finished, and
// returns the first of their failures.
func (t *task) wait() error {
	<-t.done
	return t.err
}

// finished reports, without blocking, whether wait would return at once.
func (t *task) finished() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// join waits for every task issued so far and returns the first failure;
// afterwards the lane is idle until the next issue.
func (l *lane) join() error {
	if l.tail == nil {
		return nil
	}
	return l.tail.wait()
}
