package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdscope/internal/faultfs"
	"crowdscope/internal/vfs"
)

func TestRetryReaderAtRidesOutTransients(t *testing.T) {
	ffs := faultfs.New(vfs.OS{})
	data := []byte("hello, shard")
	ra := withRetry(ffs.WrapReaderAt(bytes.NewReader(data)),
		retryPolicy{Attempts: 3, Backoff: time.Microsecond})

	ffs.FailReads(2) // two transients, the third try lands
	buf := make([]byte, len(data))
	if _, err := ra.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, data) {
		t.Fatalf("read with 2 transients: %q, %v", buf, err)
	}

	ffs.FailReads(3) // one more failure than the budget allows
	if _, err := ra.ReadAt(buf, 0); !errors.Is(err, faultfs.ErrTransient) {
		t.Fatalf("read with 3 transients: %v, want the surfaced transient", err)
	}
}

type errReaderAt struct {
	err   error
	calls int
}

func (e *errReaderAt) ReadAt([]byte, int64) (int, error) {
	e.calls++
	return 0, e.err
}

func TestRetryReaderAtPermanentErrorsFailFast(t *testing.T) {
	for _, perm := range []error{io.EOF, io.ErrUnexpectedEOF, os.ErrNotExist, os.ErrPermission} {
		e := &errReaderAt{err: perm}
		ra := withRetry(e, retryPolicy{Attempts: 5, Backoff: time.Microsecond})
		if _, err := ra.ReadAt(make([]byte, 1), 0); !errors.Is(err, perm) {
			t.Fatalf("error %v not surfaced", perm)
		}
		if e.calls != 1 {
			t.Fatalf("permanent error %v retried %d times", perm, e.calls-1)
		}
	}
}

func TestRetryBackoffGrowsAndJitters(t *testing.T) {
	e := &errReaderAt{err: errors.New("flaky")}
	var slept []time.Duration
	ra := withRetry(e, retryPolicy{
		Attempts: 4,
		Backoff:  8 * time.Millisecond,
		Sleep:    func(d time.Duration) { slept = append(slept, d) },
	})
	ra.ReadAt(make([]byte, 1), 0)
	if e.calls != 4 {
		t.Fatalf("%d tries, want 4", e.calls)
	}
	if len(slept) != 3 {
		t.Fatalf("%d sleeps, want 3", len(slept))
	}
	for i, base := 0, 8*time.Millisecond; i < 3; i, base = i+1, base*2 {
		if slept[i] < base/2 || slept[i] > base {
			t.Fatalf("sleep %d = %v outside jittered [%v, %v]", i, slept[i], base/2, base)
		}
	}
}

// TestDatasetReadsRideOutTransients drives the real shard read path —
// open, metadata, selective column reads — through injected transient
// failures and expects the dataset to come back clean.
func TestDatasetReadsRideOutTransients(t *testing.T) {
	want := bigFixtureStore(t, 4, 200)
	mfs := newMemFS()
	man := writeFixtureDataset(t, want, mfs, 2)

	ffs := faultfs.New(vfs.OS{})
	d, err := OpenDataset(man, func(name string) (io.ReaderAt, int64, error) {
		ra, size, err := mfs.open(name)
		if err != nil {
			return nil, 0, err
		}
		return ffs.WrapReaderAt(ra), size, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d.retry = retryPolicy{Attempts: 3, Backoff: time.Microsecond}

	ffs.FailReads(2) // a burst the 3-attempt budget can absorb
	st, rep, err := d.LoadStore(LoadOptions{Mode: LoadStrict})
	if err != nil {
		t.Fatalf("load through transients: %v", err)
	}
	if st.Len() != want.Len() || len(rep.Shards) != 2 {
		t.Fatalf("loaded %d rows over %d shards", st.Len(), len(rep.Shards))
	}

	// Per-column shard reads retry too.
	ffs.FailReads(2)
	sh, err := d.Shard(0)
	if err != nil {
		t.Fatalf("open shard through transients: %v", err)
	}
	if err := sh.EnsureColumns(colMaskWorker | colMaskTrust); err != nil {
		t.Fatalf("column read through transients: %v", err)
	}

	// Without a retry budget the same faults surface.
	ffs.FailReads(2)
	d2, err := OpenDataset(man, func(name string) (io.ReaderAt, int64, error) {
		ra, size, err := mfs.open(name)
		if err != nil {
			return nil, 0, err
		}
		return ffs.WrapReaderAt(ra), size, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d2.LoadStore(LoadOptions{Mode: LoadStrict}); !errors.Is(err, faultfs.ErrTransient) {
		t.Fatalf("unretried load: %v, want the transient error", err)
	}
}

// alwaysFailRA fails every read; safe for concurrent use.
type alwaysFailRA struct {
	err   error
	calls atomic.Int64
}

func (f *alwaysFailRA) ReadAt([]byte, int64) (int, error) {
	f.calls.Add(1)
	return 0, f.err
}

// TestRetryReaderAtConcurrent hits one retrying reader from many
// goroutines under -race. io.ReaderAt permits fully parallel ReadAt
// calls and RunDataset fans shards out, so the jittered-backoff path —
// which used to funnel through a shared rand.Rand — must be
// concurrency-safe, and every jittered delay must still land in
// [base/2, base].
func TestRetryReaderAtConcurrent(t *testing.T) {
	const (
		goroutines = 16
		reads      = 50
		attempts   = 4
	)
	f := &alwaysFailRA{err: errors.New("flaky")}
	var mu sync.Mutex
	var slept []time.Duration
	ra := withRetry(f, retryPolicy{
		Attempts: attempts,
		Backoff:  8 * time.Microsecond,
		Sleep: func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 0; i < reads; i++ {
				if _, err := ra.ReadAt(buf, int64(i)); err == nil {
					t.Error("read unexpectedly succeeded")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := f.calls.Load(), int64(goroutines*reads*attempts); got != want {
		t.Fatalf("%d underlying reads, want %d", got, want)
	}
	if got, want := len(slept), goroutines*reads*(attempts-1); got != want {
		t.Fatalf("%d sleeps, want %d", got, want)
	}
	// Backoff doubles per retry, so every delay must lie within the
	// jitter window of one of the three bases.
	for _, d := range slept {
		ok := false
		for base := 8 * time.Microsecond; base <= 32*time.Microsecond; base *= 2 {
			if d >= base/2 && d <= base {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("sleep %v outside every jittered backoff window", d)
		}
	}

	// The success path stays correct under the same concurrency.
	data := []byte("parallel shard bytes")
	okRA := withRetry(bytes.NewReader(data), retryPolicy{Attempts: 3, Backoff: time.Microsecond})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len(data))
			for i := 0; i < reads; i++ {
				if _, err := okRA.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, data) {
					t.Errorf("concurrent read: %q, %v", buf, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
