package msg

import (
	"strings"
	"testing"

	"github.com/hope-dist/hope/internal/ids"
)

var (
	iid = ids.IntervalID{Proc: 3, Seq: 2, Epoch: 5}
	x   = ids.AID(9)
)

func TestConstructors(t *testing.T) {
	for _, tt := range []struct {
		name string
		m    *Message
		kind Kind
		to   ids.PID
	}{
		{"guess", Guess(3, iid, x), KindGuess, x.PID()},
		{"affirm", Affirm(3, iid, x, []ids.AID{1, 2}), KindAffirm, x.PID()},
		{"deny", Deny(3, iid, x), KindDeny, x.PID()},
		{"replace", Replace(x, iid, []ids.AID{4}), KindReplace, iid.Proc},
		{"rollback", Rollback(x, iid), KindRollback, iid.Proc},
		{"retract", Retract(3, iid, x), KindRetract, x.PID()},
		{"data", Data(3, 7, iid, []ids.AID{x}, "v"), KindData, 7},
	} {
		if tt.m.Kind != tt.kind {
			t.Errorf("%s: kind = %v, want %v", tt.name, tt.m.Kind, tt.kind)
		}
		if tt.m.To != tt.to {
			t.Errorf("%s: to = %v, want %v", tt.name, tt.m.To, tt.to)
		}
	}
}

func TestReplaceCarriesSenderAIDAndSet(t *testing.T) {
	m := Replace(x, iid, []ids.AID{4, 5})
	if m.AID != x {
		t.Fatalf("AID = %v, want %v (the replaced assumption)", m.AID, x)
	}
	if m.IID != iid {
		t.Fatalf("IID = %v, want target %v", m.IID, iid)
	}
	if len(m.IDO) != 2 {
		t.Fatalf("IDO = %v", m.IDO)
	}
}

func TestRollbackCarriesDeniedAID(t *testing.T) {
	m := Rollback(x, iid)
	if m.AID != x {
		t.Fatalf("AID = %v, want the denied assumption %v", m.AID, x)
	}
	if m.From != x.PID() || m.To != iid.Proc {
		t.Fatalf("routing = %v->%v", m.From, m.To)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindGuess:    "Guess",
		KindAffirm:   "Affirm",
		KindDeny:     "Deny",
		KindReplace:  "Replace",
		KindRollback: "Rollback",
		KindRetract:  "Retract",
		KindData:     "Data",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d) = %q, want %q", k, k.String(), s)
		}
	}
	if got := Kind(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestMessageString(t *testing.T) {
	m := Affirm(3, iid, x, []ids.AID{1})
	s := m.String()
	for _, frag := range []string{"Affirm", "pid:3", "aid:9", "iid:3/2.5", "ido"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String %q missing %q", s, frag)
		}
	}
	d := Data(1, 2, iid, []ids.AID{x}, "payload")
	if !strings.Contains(d.String(), "tag") {
		t.Errorf("data String %q missing tag", d.String())
	}
}

func TestNewProtocolConstructors(t *testing.T) {
	r := Revive(x, iid)
	if r.Kind != KindRevive || r.To != iid.Proc || r.IID != iid || r.AID != x {
		t.Fatalf("Revive = %v", r)
	}
	cp := CutProbe(3, iid, x)
	if cp.Kind != KindCutProbe || cp.To != x.PID() || cp.IID != iid {
		t.Fatalf("CutProbe = %v", cp)
	}
	ca := CutAck(x, iid)
	if ca.Kind != KindCutAck || ca.To != iid.Proc || ca.IID != iid || ca.AID != x {
		t.Fatalf("CutAck = %v", ca)
	}
	for k, want := range map[Kind]string{
		KindProbe:    "Probe",
		KindRevive:   "Revive",
		KindCutProbe: "CutProbe",
		KindCutAck:   "CutAck",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q, want %q", k, k.String(), want)
		}
	}
}
