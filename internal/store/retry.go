package store

import (
	"errors"
	"io"
	"io/fs"
	"sync/atomic"
	"time"
)

// Transient read failures — a flaky disk, a network filesystem hiccup —
// should not fail a whole analytical query, so the dataset read path
// retries them with jittered exponential backoff before surfacing the
// error. Only plausibly-transient errors retry: a short read (EOF on an
// exact-extent read means a truncated file), a missing file, or a
// permission error is permanent and fails immediately, keeping the
// corruption taxonomy crisp — retrying cannot turn a damaged shard into
// a slow-but-successful read.

// retryPolicy configures transient-read retries on the dataset path.
type retryPolicy struct {
	// Attempts is the total number of tries per read; 0 or 1 disables
	// retrying.
	Attempts int
	// Backoff is the delay before the first retry; each further retry
	// doubles it, and every delay is jittered down by up to half.
	Backoff time.Duration
	// Sleep replaces time.Sleep in tests; nil means time.Sleep.
	Sleep func(time.Duration)
}

// defaultRetryPolicy is what OpenDatasetPath installs: three tries with
// a couple of milliseconds of backoff — enough to ride out a hiccup,
// too little to matter on a healthy disk.
var defaultRetryPolicy = retryPolicy{Attempts: 3, Backoff: 2 * time.Millisecond}

// retryableRead reports whether a ReadAt error is worth retrying.
func retryableRead(err error) bool {
	switch {
	case errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, fs.ErrNotExist),
		errors.Is(err, fs.ErrPermission),
		errors.Is(err, fs.ErrClosed),
		errors.Is(err, fs.ErrInvalid):
		return false
	}
	return true
}

// withRetry wraps ra so every ReadAt retries transient failures per the
// policy. The wrapper forwards Close to the underlying reader when it
// has one, so ownership semantics don't change.
func withRetry(ra io.ReaderAt, p retryPolicy) io.ReaderAt {
	if p.Attempts <= 1 {
		return ra
	}
	r := &retryReaderAt{ra: ra, p: p}
	r.seed.Store(uint64(time.Now().UnixNano()))
	return r
}

type retryReaderAt struct {
	ra io.ReaderAt
	p  retryPolicy

	// seed drives the jitter PRNG lock-free: io.ReaderAt permits fully
	// parallel ReadAt calls (a dataset query opens shards in parallel), and retries
	// must not serialize on a shared rand.Rand while the rest of the
	// read path runs unsynchronized.
	seed atomic.Uint64
}

// splitmix64 is the SplitMix64 output function: one atomic counter step
// plus a few multiplies yields an independent, well-mixed value per
// call with no shared mutable state beyond the counter.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// jitter returns d shrunk by a random factor in [1/2, 1].
func (r *retryReaderAt) jitter(d time.Duration) time.Duration {
	f := int64(splitmix64(r.seed.Add(1))) % (int64(d)/2 + 1)
	if f < 0 {
		f = -f
	}
	return d - time.Duration(f)
}

func (r *retryReaderAt) ReadAt(p []byte, off int64) (int, error) {
	sleep := r.p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	delay := r.p.Backoff
	for attempt := 1; ; attempt++ {
		n, err := r.ra.ReadAt(p, off)
		if err == nil || attempt >= r.p.Attempts || !retryableRead(err) {
			return n, err
		}
		if delay > 0 {
			sleep(r.jitter(delay))
			delay *= 2
		}
	}
}

// Close forwards to the underlying reader when it is a Closer.
func (r *retryReaderAt) Close() error {
	if c, ok := r.ra.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
