// Package replica applies HOPE to optimistic replication, the
// application sketched in the paper's §2 and explored in "Optimistic
// Replication in HOPE" [5]: a primary/backup key-value store in which a
// client colocated with a backup reads *locally* under the optimistic
// assumption that the backup is current, while a verifier process checks
// the version against the (remote, slow) primary in parallel. A stale
// read denies the assumption, rolling back everything computed from it,
// and the client retries with the primary's value.
package replica

import (
	"fmt"
	"sync/atomic"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
)

// Wire types. All payloads are values: HOPE replay re-delivers them.
type (
	// GetReq asks a store for a key's value and version.
	GetReq struct {
		ReplyTo ids.PID
		Key     string
		Seq     int
	}
	// GetResp answers a GetReq.
	GetResp struct {
		Seq   int
		Value int
		Ver   int
		Found bool
	}
	// PutReq writes a value through the primary.
	PutReq struct {
		ReplyTo ids.PID
		Key     string
		Value   int
		Seq     int
	}
	// PutResp acknowledges a PutReq with the new version.
	PutResp struct {
		Seq int
		Ver int
	}
	// ReplUpdate propagates a committed write to backups.
	ReplUpdate struct {
		Key   string
		Value int
		Ver   int
	}
)

// retrySeqs issues unique sequence numbers for post-rollback re-reads;
// values are journaled via Ctx.Record so replays reuse them.
var retrySeqs atomic.Int64

type entry struct {
	value int
	ver   int
}

// Primary returns the authoritative store body. Writes bump the per-key
// version and replicate asynchronously to every backup.
func Primary(backups []ids.PID) core.Body {
	return func(ctx *core.Ctx) error {
		store := make(map[string]entry)
		for {
			payload, _, err := ctx.Recv()
			if err != nil {
				return err
			}
			switch req := payload.(type) {
			case GetReq:
				e, ok := store[req.Key]
				ctx.Send(req.ReplyTo, GetResp{Seq: req.Seq, Value: e.value, Ver: e.ver, Found: ok})
			case PutReq:
				e := store[req.Key]
				e = entry{value: req.Value, ver: e.ver + 1}
				store[req.Key] = e
				for _, b := range backups {
					ctx.Send(b, ReplUpdate{Key: req.Key, Value: e.value, Ver: e.ver})
				}
				if req.ReplyTo.Valid() {
					ctx.Send(req.ReplyTo, PutResp{Seq: req.Seq, Ver: e.ver})
				}
			default:
				return fmt.Errorf("replica primary: unexpected payload %T", payload)
			}
		}
	}
}

// Backup returns a read-only replica body applying replication updates
// and serving local reads.
func Backup() core.Body {
	return func(ctx *core.Ctx) error {
		store := make(map[string]entry)
		for {
			payload, _, err := ctx.Recv()
			if err != nil {
				return err
			}
			switch req := payload.(type) {
			case ReplUpdate:
				if cur, ok := store[req.Key]; !ok || req.Ver > cur.ver {
					store[req.Key] = entry{value: req.Value, ver: req.Ver}
				}
			case GetReq:
				e, ok := store[req.Key]
				ctx.Send(req.ReplyTo, GetResp{Seq: req.Seq, Value: e.value, Ver: e.ver, Found: ok})
			default:
				return fmt.Errorf("replica backup: unexpected payload %T", payload)
			}
		}
	}
}

// Client wraps the read/write operations against a primary/backup pair.
// Seq numbering is the caller's: every operation must use a fresh seq.
type Client struct {
	Primary ids.PID
	Backup  ids.PID
}

// getFrom performs a synchronous read against one store.
func (c Client) getFrom(ctx *core.Ctx, store ids.PID, key string, seq int) (GetResp, error) {
	ctx.Send(store, GetReq{ReplyTo: ctx.PID(), Key: key, Seq: seq})
	for {
		payload, _, err := ctx.Recv()
		if err != nil {
			return GetResp{}, err
		}
		if resp, ok := payload.(GetResp); ok && resp.Seq == seq {
			return resp, nil
		}
	}
}

// Get performs a pessimistic read: one round trip to the remote primary.
func (c Client) Get(ctx *core.Ctx, key string, seq int) (int, error) {
	resp, err := c.getFrom(ctx, c.Primary, key, seq)
	if err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// GetLocal reads from the backup without any freshness guarantee or
// verification — useful for probing replication progress.
func (c Client) GetLocal(ctx *core.Ctx, key string, seq int) (value, ver int, err error) {
	resp, err := c.getFrom(ctx, c.Backup, key, seq)
	if err != nil {
		return 0, 0, err
	}
	return resp.Value, resp.Ver, nil
}

// Put writes through the primary synchronously.
func (c Client) Put(ctx *core.Ctx, key string, value, seq int) error {
	ctx.Send(c.Primary, PutReq{ReplyTo: ctx.PID(), Key: key, Value: value, Seq: seq})
	for {
		payload, _, err := ctx.Recv()
		if err != nil {
			return err
		}
		if resp, ok := payload.(PutResp); ok && resp.Seq == seq {
			return nil
		}
	}
}

// GetOptimistic reads from the local backup and speculates that the
// value is current; a verifier process concurrently compares versions
// with the primary. On a stale read the assumption is denied: the caller
// rolls back to this call and re-reads from the primary directly (the
// read is idempotent, so no deduplication is needed).
func (c Client) GetOptimistic(ctx *core.Ctx, key string, seq int) (int, error) {
	local, err := c.getFrom(ctx, c.Backup, key, seq)
	if err != nil {
		return 0, err
	}

	x := ctx.AidInit()
	primary, verifySeq := c.Primary, seq

	ctx.Spawn(func(v *core.Ctx) error {
		truth, err := (Client{Primary: primary}).getFrom(v, primary, key, verifySeq)
		if err != nil {
			return err
		}
		if truth.Ver == local.Ver {
			v.Affirm(x)
		} else {
			v.Deny(x)
		}
		return nil
	})

	if ctx.Guess(x) {
		return local.Value, nil
	}

	// Stale: fetch the committed value from the primary, under a unique
	// sequence number so requeued responses from other generations of
	// this read can never satisfy it.
	rseq, ok := ctx.Record(func() any { return int(retrySeqs.Add(1)) + 1_000_000 }).(int)
	if !ok {
		return 0, fmt.Errorf("replica: corrupt journalled retry seq")
	}
	resp, err := c.getFrom(ctx, c.Primary, key, rseq)
	if err != nil {
		return 0, err
	}
	return resp.Value, nil
}
