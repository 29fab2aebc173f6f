package core

// Micro-benchmarks for the primitive hot paths, complementing the
// experiment macro-benchmarks at the repository root.

import (
	"sync"
	"testing"

	"github.com/hope-dist/hope/internal/ids"
)

// benchEngine builds an engine torn down with the benchmark.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	eng := NewEngine(Config{})
	b.Cleanup(eng.Shutdown)
	return eng
}

// BenchmarkNewAID measures minting one assumption: a PID attached to
// the AID table and a Cold machine entered in it.
func BenchmarkNewAID(b *testing.B) {
	eng := benchEngine(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.NewAID(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuessAffirmed measures a full guess lifecycle: one guess plus
// its eventual resolution, amortized over a batch per process.
func BenchmarkGuessAffirmed(b *testing.B) {
	eng := benchEngine(b)
	const batch = 64

	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		aids := make([]ids.AID, batch)
		for i := range aids {
			x, err := eng.NewAID()
			if err != nil {
				b.Fatal(err)
			}
			aids[i] = x
		}
		var wg sync.WaitGroup
		wg.Add(1)
		if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
			defer wg.Done()
			for _, x := range aids {
				ctx.Guess(x)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
			for _, x := range aids {
				ctx.Affirm(x)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		wg.Wait()
	}
}

// BenchmarkSendRecv measures tagged message round trips between two
// definite processes.
func BenchmarkSendRecv(b *testing.B) {
	eng := benchEngine(b)

	echo, err := eng.SpawnRoot(func(ctx *Ctx) error {
		for {
			v, from, err := ctx.Recv()
			if err != nil {
				return err
			}
			ctx.Send(from, v)
		}
	})
	if err != nil {
		b.Fatal(err)
	}

	done := make(chan struct{})
	b.ResetTimer()
	if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
		defer close(done)
		for i := 0; i < b.N; i++ {
			ctx.Send(echo.PID(), i)
			if _, _, err := ctx.Recv(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	<-done
}

// BenchmarkRollbackReplay measures one deny-rollback-replay cycle over a
// journal of the given depth.
func BenchmarkRollbackReplay(b *testing.B) {
	for _, depth := range []int{8, 64} {
		b.Run(byDepth(depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := NewEngine(Config{})
				x, _ := eng.NewAID()
				done := make(chan struct{}, 2)
				if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
					// Build a journal prefix of Record entries, then
					// speculate and park.
					for j := 0; j < depth; j++ {
						ctx.Record(func() any { return j })
					}
					ctx.Guess(x)
					done <- struct{}{}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				<-done
				if _, err := eng.SpawnRoot(func(ctx *Ctx) error {
					ctx.Deny(x)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				if !eng.Settle(settleTimeout) {
					b.Fatal("no settle")
				}
				eng.Shutdown()
			}
		})
	}
}

func byDepth(d int) string {
	if d < 10 {
		return "depth=small"
	}
	return "depth=large"
}
