package transport

import (
	"testing"

	"github.com/hope-dist/hope/internal/msg"
)

func TestLocalDelivery(t *testing.T) {
	l := NewLocal()
	defer l.Close()
	var got []*msg.Message
	l.Register(1, func(m *msg.Message) { got = append(got, m) })

	l.Send(&msg.Message{Kind: msg.KindData, From: 2, To: 1, Payload: "hi"})
	if len(got) != 1 || got[0].Payload != "hi" {
		t.Fatalf("synchronous delivery failed: %v", got)
	}
	l.Send(&msg.Message{Kind: msg.KindGuess, From: 2, To: 9, AID: 9}) // no handler
	st := l.Stats()
	if st.Data != 1 || st.Dead != 1 {
		t.Fatalf("stats = %v, want data=1 dead=1", st)
	}
	l.Unregister(1)
	l.Send(&msg.Message{Kind: msg.KindData, From: 2, To: 1})
	if l.Stats().Dead != 2 {
		t.Fatal("unregistered PID should dead-letter")
	}
	if l.Inflight() != 0 {
		t.Fatal("Local transport can never have in-flight messages")
	}
	l.Drain() // must not block

	l.Close()
	l.Send(&msg.Message{Kind: msg.KindData, From: 2, To: 1})
	if len(got) != 1 {
		t.Fatal("send on closed transport delivered")
	}
}

func TestStatsAggregates(t *testing.T) {
	var c Counters
	for _, k := range msg.Kinds {
		c.Observe(k)
	}
	c.Observe(0) // dead letter
	st := c.Snapshot()
	// Guess..Retract, Data and the cut traffic (CutProbe, CutAck,
	// Revive); GC probes, Nack and Batch are counted apart.
	if st.Total() != 10 {
		t.Fatalf("Total = %d, want 10 (%v)", st.Total(), st)
	}
	if st.Control() != 9 {
		t.Fatalf("Control = %d, want 9", st.Control())
	}
	if st.CutProbe != 1 || st.CutAck != 1 || st.Revive != 1 {
		t.Fatalf("cut traffic miscounted: %v", st)
	}
	if st.Dead != 1 || st.Probe != 1 || st.Nack != 1 || st.Batch != 1 {
		t.Fatalf("dead/probe/nack/batch miscounted: %v", st)
	}
	if st.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestQueueLimitsNormAndAllows(t *testing.T) {
	// Zero fields resolve to the package defaults.
	q := QueueLimits{}.Norm()
	if q.MaxFrames != DefaultMaxQueueFrames || q.MaxBytes != DefaultMaxQueueBytes {
		t.Fatalf("Norm() = %+v, want defaults", q)
	}
	// Negative fields survive Norm and mean unlimited.
	u := QueueLimits{MaxFrames: -1, MaxBytes: -1}.Norm()
	if u.MaxFrames != -1 || u.MaxBytes != -1 {
		t.Fatalf("Norm() clobbered unlimited: %+v", u)
	}
	if !u.Allows(1<<30, 1<<40) {
		t.Fatal("unlimited limits rejected a huge queue")
	}
	// Explicit caps bind exactly at the boundary.
	c := QueueLimits{MaxFrames: 4, MaxBytes: 100}.Norm()
	if !c.Allows(4, 100) {
		t.Fatal("cap rejected a queue exactly at its bounds")
	}
	if c.Allows(5, 100) || c.Allows(4, 101) {
		t.Fatal("cap allowed a queue past its bounds")
	}
}
