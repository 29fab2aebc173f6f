// Package rpc implements the paper's motivating workload (§3.1): hiding
// remote-procedure-call latency with optimism.
//
// A synchronous RPC costs a full round trip per call. The optimistic
// transformation (Bacon & Strom's call streaming, realized with HOPE in
// the paper's Figures 1–2) predicts the reply, spawns a WorryWart process
// to perform the real call and verify the prediction, and lets the caller
// speculate onward immediately. A wrong prediction denies the assumption
// and rolls the caller back to the call site; the caller then re-issues
// the call pessimistically under the same call identifier, which the
// server answers from its deduplication cache without re-applying the
// operation.
package rpc

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/hope-dist/hope/internal/core"
	"github.com/hope-dist/hope/internal/ids"
	"github.com/hope-dist/hope/internal/wire"
)

func init() {
	// A Server's compaction snapshot (ServerState) is persisted by the
	// durable layer via gob when the node runs with a WAL.
	gob.Register(ServerState{})
	// Request and Response travel as message payloads, in the wire
	// codec's binary form (their bodies are below); every program that
	// imports this package speaks the same vocabulary without registering
	// it itself. The registration also gob-registers them: that is how a
	// journalled note and a frame written before codec version 4 carry
	// them.
	wire.RegisterBinaryPayload(Request{}, decodeRequest)
	wire.RegisterBinaryPayload(Response{}, decodeResponse)
}

// callIDs issues process-wide unique call identifiers. Uniqueness is all
// that matters; the values are journaled via Ctx.Record so re-executions
// replay the identifier they first drew.
var callIDs atomic.Uint64

// Request is the wire format of a call to a Server.
type Request struct {
	// ReplyTo receives the Response. It is carried explicitly because a
	// WorryWart calls on behalf of its parent. NilPID means no reply is
	// wanted (fire-and-forget).
	ReplyTo ids.PID
	// Method selects the server operation.
	Method string
	// Arg is the operation argument.
	Arg int
	// Seq correlates responses with requests per caller.
	Seq int
	// CallID deduplicates executions: two requests with the same nonzero
	// CallID apply the operation once, and both receive its result. The
	// optimistic path uses this to let the rolled-back caller retrieve
	// the result of the call its WorryWart already made.
	CallID uint64
}

// Response is the wire format of a Server's reply.
type Response struct {
	Seq    int
	CallID uint64
	Result int
}

// Wire payload ids (wire.BinaryPayload): protocol constants, never
// reused or renumbered.
const (
	payloadRequest  = 32
	payloadResponse = 33
)

// PayloadID implements wire.BinaryPayload.
func (Request) PayloadID() uint8 { return payloadRequest }

// AppendPayload implements wire.BinaryPayload: the fields in declaration
// order, identifiers as uvarints, ints as zigzag varints.
func (r Request) AppendPayload(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.ReplyTo))
	buf = wire.AppendString(buf, r.Method)
	buf = binary.AppendVarint(buf, int64(r.Arg))
	buf = binary.AppendVarint(buf, int64(r.Seq))
	return binary.AppendUvarint(buf, r.CallID)
}

func decodeRequest(d *wire.Decoder) (any, error) {
	var r Request
	replyTo, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	r.ReplyTo = ids.PID(replyTo)
	if r.Method, err = d.Str(); err != nil {
		return nil, err
	}
	if r.Arg, err = d.Int(); err != nil {
		return nil, err
	}
	if r.Seq, err = d.Int(); err != nil {
		return nil, err
	}
	if r.CallID, err = d.Uvarint(); err != nil {
		return nil, err
	}
	return r, nil
}

// PayloadID implements wire.BinaryPayload.
func (Response) PayloadID() uint8 { return payloadResponse }

// AppendPayload implements wire.BinaryPayload.
func (r Response) AppendPayload(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(r.Seq))
	buf = binary.AppendUvarint(buf, r.CallID)
	return binary.AppendVarint(buf, int64(r.Result))
}

func decodeResponse(d *wire.Decoder) (any, error) {
	var r Response
	var err error
	if r.Seq, err = d.Int(); err != nil {
		return nil, err
	}
	if r.CallID, err = d.Uvarint(); err != nil {
		return nil, err
	}
	if r.Result, err = d.Int(); err != nil {
		return nil, err
	}
	return r, nil
}

// Handler computes a server operation: state in, (state, result) out.
type Handler func(state, arg int) (newState, result int)

// ServerState is a Server's journal-compactable state. Its fields are
// exported so the durable layer can gob-encode compaction snapshots into
// the write-ahead log and restore them after a crash.
type ServerState struct {
	Value int
	Cache map[uint64]int // CallID → result, for dedup
}

func (s ServerState) clone() ServerState {
	c := ServerState{Value: s.Value, Cache: make(map[uint64]int, len(s.Cache))}
	for k, v := range s.Cache {
		c.Cache[k] = v
	}
	return c
}

// Server returns a process body implementing a stateful request/response
// service. Every request executes against the running state; because
// requests arrive as tagged messages, speculative callers make the server
// speculative too, and HOPE rolls its state back by re-execution when
// their assumptions fail. The body is a compacting Loop: once in-flight
// speculation resolves, the server snapshots its state and sheds its
// replay journal, so rollback cost stays proportional to the speculative
// suffix no matter how long the server lives.
func Server(handlers map[string]Handler, initial int) core.Body {
	return core.Loop(core.LoopConfig[ServerState]{
		Init:  func() ServerState { return ServerState{Value: initial, Cache: make(map[uint64]int)} },
		Clone: ServerState.clone,
		Handle: func(ctx *core.Ctx, state ServerState, payload any, _ ids.PID) (ServerState, error) {
			req, ok := payload.(Request)
			if !ok {
				return state, fmt.Errorf("rpc server: unexpected payload %T", payload)
			}
			result, seen := state.Cache[req.CallID]
			if req.CallID == 0 || !seen {
				h, ok := handlers[req.Method]
				if !ok {
					return state, fmt.Errorf("rpc server: unknown method %q", req.Method)
				}
				state.Value, result = h(state.Value, req.Arg)
				if req.CallID != 0 {
					state.Cache[req.CallID] = result
				}
			}
			if req.ReplyTo.Valid() {
				ctx.Send(req.ReplyTo, Response{Seq: req.Seq, CallID: req.CallID, Result: result})
			}
			return state, nil
		},
		CompactEvery: 16,
	})
}

// call sends a request and blocks for the matching response. Replies
// with other sequence numbers are consumed and skipped: after a rollback,
// a response journalled in a discarded interval is requeued and may be
// re-delivered to a re-execution that took a different path.
func call(ctx *core.Ctx, server ids.PID, req Request) (int, error) {
	req.ReplyTo = ctx.PID()
	ctx.Send(server, req)
	for {
		payload, _, err := ctx.Recv()
		if err != nil {
			return 0, err
		}
		resp, ok := payload.(Response)
		if !ok {
			continue
		}
		// Match by CallID when the request carries one — sequence
		// numbers repeat across re-execution generations, call
		// identifiers do not — and by Seq otherwise.
		if req.CallID != 0 {
			if resp.CallID == req.CallID {
				return resp.Result, nil
			}
			continue
		}
		if resp.Seq == req.Seq {
			return resp.Result, nil
		}
	}
}

// Call performs a synchronous (pessimistic) RPC: it sends the request and
// blocks until the matching response arrives. This is the baseline the
// optimistic path is measured against.
func Call(ctx *core.Ctx, server ids.PID, method string, arg, seq int) (int, error) {
	return call(ctx, server, Request{Method: method, Arg: arg, Seq: seq})
}

// Probe issues one synchronous call from a throwaway definite process
// and returns the result. Because the call is a full round trip it also
// barriers on the server having consumed everything sent before it —
// the wire benchmark, the crash-restart tests, and the chaos harness
// all use it to read a server's committed state as ground truth.
func Probe(eng *core.Engine, server ids.PID, method string, timeout time.Duration) (int, error) {
	got := make(chan int, 1)
	errc := make(chan error, 1)
	_, err := eng.SpawnRoot(func(ctx *core.Ctx) error {
		res, err := call(ctx, server, Request{Method: method, Seq: 1 << 20})
		if err != nil {
			errc <- err
			return err
		}
		got <- res
		return nil
	})
	if err != nil {
		return 0, err
	}
	select {
	case res := <-got:
		return res, nil
	case err := <-errc:
		return 0, err
	case <-time.After(timeout):
		return 0, fmt.Errorf("rpc: probe %s to %v timed out after %v", method, server, timeout)
	}
}

// Predictor guesses a call's result before the server answers.
type Predictor func(method string, arg int) int

// CallOptimistic performs the call-streaming transformation for one RPC:
// it predicts the result, spawns a WorryWart to execute the real call and
// affirm or deny the prediction, and returns the predicted value
// immediately — the caller is speculative until verification completes.
//
// If the prediction was wrong the caller rolls back to this call site and
// CallOptimistic re-issues the call synchronously under the same call
// identifier; the server's dedup cache guarantees the operation applies
// once even though two requests named it.
func CallOptimistic(ctx *core.Ctx, server ids.PID, method string, arg, seq int, predict Predictor) (int, error) {
	predicted := predict(method, arg)
	x := ctx.AidInit()
	id, ok := ctx.Record(func() any { return callIDs.Add(1) }).(uint64)
	if !ok {
		return 0, fmt.Errorf("rpc optimistic call: corrupt journalled call id")
	}

	// The WorryWart executes the real call. Spawned before the guess, it
	// inherits only the speculation the caller already carries, exactly
	// like Figure 2's WorryWart process.
	ctx.Spawn(func(w *core.Ctx) error {
		result, err := call(w, server, Request{Method: method, Arg: arg, Seq: seq, CallID: id})
		if err != nil {
			return err
		}
		if result == predicted {
			w.Affirm(x)
		} else {
			w.Deny(x)
		}
		return nil
	})

	if ctx.Guess(x) {
		return predicted, nil
	}

	// Pessimistic path (after rollback): fetch the actual result under
	// the same CallID — answered from the server's dedup cache if the
	// WorryWart's execution survived, applied fresh otherwise.
	return call(ctx, server, Request{Method: method, Arg: arg, Seq: seq, CallID: id})
}
