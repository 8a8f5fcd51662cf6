package core

// Single-flight miss coalescing: when K goroutines miss on the same
// (document, user) key concurrently, exactly one — the leader — runs
// the full Placeless read path (property chain execution, verifier
// install, notifier registration); the other K−1 block until the
// leader finishes and then share its result. Without coalescing, a
// hot key's misses would execute K identical property chains and fetch
// the source K times — the duplicate-fetch stampede dynamic-document
// caches must suppress.

// flight is one in-progress read-path execution. The leader populates
// data/info/err and closes done; followers block on done and then read
// the result fields (safe without the shard lock: close(done) is the
// happens-before edge).
type flight struct {
	done chan struct{}
	data []byte
	info EntryInfo
	err  error
}

// joinOrLead looks up an in-flight read for du under the shard lock.
// If one exists it is returned with leader=false and the caller must
// wait on it; otherwise a new flight is registered and returned with
// leader=true, and the caller must complete it via finish.
func (c *Cache) joinOrLead(sh *shard, du docUser) (f *flight, leader bool) {
	sh.mu.Lock()
	if f := sh.flights[du]; f != nil {
		sh.mu.Unlock()
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	sh.flights[du] = f
	sh.mu.Unlock()
	return f, true
}

// finish publishes the leader's result and releases the followers. The
// flight is deregistered before done is closed, so a follower that
// wakes and misses again starts a fresh flight rather than joining a
// completed one.
func (c *Cache) finish(sh *shard, du docUser, f *flight, data []byte, info EntryInfo, err error) {
	f.data, f.info, f.err = data, info, err
	sh.mu.Lock()
	delete(sh.flights, du)
	sh.mu.Unlock()
	close(f.done)
}
