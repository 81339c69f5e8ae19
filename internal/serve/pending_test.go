package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nshd/internal/cnn"
	"nshd/internal/engine"
	"nshd/internal/nn"
	"nshd/internal/tensor"
)

// tripwire is an identity layer (a ReLU after a ReLU) whose ForwardInfer
// panics while armed: the engine fault PredictChecked turns into
// engine.ErrInternal, which /predict answers with a 500.
type tripwire struct {
	*nn.ReLU
	armed atomic.Bool
}

func (w *tripwire) ForwardInfer(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	if w.armed.Load() {
		panic("serve test: tripwire")
	}
	return w.ReLU.ForwardInfer(x, ar)
}

// trippedEngine is buildEngine's engine with a tripwire after the first
// unit's ReLU.
func trippedEngine(t *testing.T) (*engine.Engine, *tripwire) {
	wire := &tripwire{ReLU: nn.NewReLU()}
	e, _, _ := buildEngineOn(t, func(m *cnn.Model) {
		u := &m.Units[0]
		u.Layers = append(u.Layers[:2:2], wire, u.Layers[2])
	}, nil)
	return e, wire
}

// settled waits for every announced request to have been taken off pending,
// which for a request that reached the queue happens when the flush loop
// receives it, possibly after its handler returned.
func settled(t *testing.T, b *Batcher) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		switch n := b.pending.Load(); {
		case n < 0:
			t.Fatalf("pending is %d: an announcement was taken back twice", n)
		case n == 0:
			return
		case time.Now().After(deadline):
			t.Fatalf("pending stuck at %d: a leaked announcement turns every later batch into a full MaxDelay wait", n)
		}
	}
}

// lingering starts an unannounced PredictBatch and returns once the flush
// loop has received it, so the batch it opened lingers up to MaxDelay. The
// returned channel yields its error.
func lingering(t *testing.T, b *Batcher, data []float32) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := b.PredictBatch(context.Background(), data, 1)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); b.Stats().Requests == 0 || len(b.queue) > 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the direct request never reached the flush loop")
		}
	}
	return done
}

// TestPendingSettlesOnEveryExit drives each way out of handlePredict and
// requires the batcher's count of announced requests to return to 0 after
// each: a request that never reaches the queue takes its announcement back,
// and one that does is taken off when the flush loop receives it.
func TestPendingSettlesOnEveryExit(t *testing.T) {
	e, wire := trippedEngine(t)
	_, _, test := buildEngine(t, nil)
	row := sample(test, 0)
	good := jsonBody(row, 1, len(row))
	nan := float32bits(row)
	nan[3] = 0x7fc00000
	opts := Options{MaxBatch: 8, MaxDelay: 200 * time.Millisecond, QueueCap: 4}

	// call sends body to a fresh Server over b with the given timeout and
	// returns the status handlePredict wrote.
	call := func(ctx context.Context, b *Batcher, timeout time.Duration, ctype string, body []byte) int {
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)).WithContext(ctx)
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		NewServer(b, timeout).Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	live := func(t *testing.T) *Batcher {
		b, err := New(e, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		return b
	}
	bg := context.Background()
	for _, tc := range []struct {
		name   string
		status int
		run    func(t *testing.T) (*Batcher, int)
	}{
		{"served", http.StatusOK, func(t *testing.T) (*Batcher, int) {
			b := live(t)
			return b, call(bg, b, 0, "application/json", good)
		}},
		{"malformed JSON", http.StatusBadRequest, func(t *testing.T) (*Batcher, int) {
			b := live(t)
			return b, call(bg, b, 0, "application/json", []byte("{nope"))
		}},
		{"non-finite input", http.StatusBadRequest, func(t *testing.T) (*Batcher, int) {
			b := live(t)
			return b, call(bg, b, 0, "application/octet-stream", binaryFrame(1, nan))
		}},
		{"body over the limit", http.StatusRequestEntityTooLarge, func(t *testing.T) (*Batcher, int) {
			b := live(t)
			return b, call(bg, b, 0, "application/json", []byte(`{"inputs":[`+strings.Repeat(" ", 8*len(row)*24+4096)))
		}},
		{"full queue", http.StatusTooManyRequests, func(t *testing.T) (*Batcher, int) {
			b := loopless(e, Options{MaxBatch: 8, QueueCap: 1})
			b.queue <- &request{ctx: bg, n: 1, done: make(chan error, 1)}
			return b, call(bg, b, 0, "application/json", good)
		}},
		{"after Close", http.StatusServiceUnavailable, func(t *testing.T) (*Batcher, int) {
			b := live(t)
			b.Close()
			return b, call(bg, b, 0, "application/json", good)
		}},
		{"server timeout in a lingering batch", http.StatusGatewayTimeout, func(t *testing.T) (*Batcher, int) {
			b := live(t)
			direct := lingering(t, b, row)
			status := call(bg, b, 20*time.Millisecond, "application/json", good)
			if err := <-direct; err != nil {
				t.Error(err)
			}
			return b, status
		}},
		{"server timeout while queued", http.StatusGatewayTimeout, func(t *testing.T) (*Batcher, int) {
			b := loopless(e, opts)
			status := call(bg, b, 20*time.Millisecond, "application/json", good)
			if n := b.pending.Load(); n != 1 {
				t.Errorf("a queued request's handler left with pending %d, want 1 until the loop receives it", n)
			}
			go b.loop()
			t.Cleanup(b.Close)
			return b, status
		}},
		{"client cancel", 499, func(t *testing.T) (*Batcher, int) {
			b := live(t)
			direct := lingering(t, b, row)
			ctx, cancel := context.WithCancel(bg)
			time.AfterFunc(20*time.Millisecond, cancel)
			status := call(ctx, b, 0, "application/json", good)
			if err := <-direct; err != nil {
				t.Error(err)
			}
			return b, status
		}},
		{"engine error", http.StatusInternalServerError, func(t *testing.T) (*Batcher, int) {
			b := live(t)
			wire.armed.Store(true)
			defer wire.armed.Store(false)
			return b, call(bg, b, 0, "application/json", good)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, status := tc.run(t)
			if status != tc.status {
				t.Errorf("status %d, want %d", status, tc.status)
			}
			settled(t, b)
		})
	}
}

// TestServerAloneFlushesAtOnce: a lone /predict request is answered without
// waiting out MaxDelay, because no announced companion is on its way; the
// flush is counted as idle.
func TestServerAloneFlushesAtOnce(t *testing.T) {
	e, p, test := buildEngine(t, nil)
	want := p.PredictDirect(test.Images)
	b, err := New(e, Options{MaxBatch: 8, MaxDelay: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	srv := httptest.NewServer(NewServer(b, 10*time.Second).Handler())
	defer srv.Close()
	row := sample(test, 2)
	start := time.Now()
	status, text := post(t, srv.URL+"/predict", "application/octet-stream", binaryFrame(1, float32bits(row)))
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("a lone request took %v under a 1 s MaxDelay: it lingered for a companion that could not come", took)
	}
	if wantFrame := string(appendLabelFrame(nil, want[2:3])); status != http.StatusOK || text != wantFrame {
		t.Fatalf("%d %q, want %q", status, text, wantFrame)
	}
	if st := b.Stats(); st.FlushIdle != 1 || st.FlushDeadline != 0 || st.FlushFull != 0 {
		t.Fatalf("flush reasons full/deadline/idle %d/%d/%d, want 0/0/1", st.FlushFull, st.FlushDeadline, st.FlushIdle)
	}
}

// TestDirectCallersStillLinger: PredictBatch callers announce nothing, so a
// batch holding their requests lingers up to MaxDelay for a companion, as
// before the rule; a request of MaxBatch samples flushes as full.
func TestDirectCallersStillLinger(t *testing.T) {
	e, p, test := buildEngine(t, nil)
	want := p.PredictDirect(test.Images)
	b, err := New(e, Options{MaxBatch: 8, MaxDelay: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			got, err := b.Predict(context.Background(), sample(test, i))
			if err == nil && got != want[i] {
				err = errRouted
			}
			errs <- err
		}(i)
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Stats(); st.Batches != 1 || st.FlushDeadline != 1 {
		t.Fatalf("two direct requests 5 ms apart: %d flushes (%d by deadline), want one", st.Batches, st.FlushDeadline)
	}
	sl := test.Images.Len() / test.Len()
	if _, err := b.PredictBatch(context.Background(), test.Images.Data[:8*sl], 8); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.FlushFull != 1 || st.FlushFull+st.FlushDeadline+st.FlushIdle != st.Batches {
		t.Fatalf("flush reasons full/deadline/idle %d/%d/%d over %d flushes, want a full one and a sum of Batches",
			st.FlushFull, st.FlushDeadline, st.FlushIdle, st.Batches)
	}
}
