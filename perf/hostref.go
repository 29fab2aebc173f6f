package main

// The host reference. The builder is a few cores of a shared host whose
// memory system other tenants load for minutes to hours at a time:
// arithmetic keeps its speed, but anything that misses caches, wakes
// goroutines across cores or crosses the loopback runs 25–40 % slower,
// and so does every workload here (perf/README.md, "The host
// reference"). No bound the contract allows survives that, so a run
// measures, right before and right after every measured window, how
// fast the host executes a fixed piece of work of the same kind — and
// reports its times in reference seconds: seconds as this host would
// have counted them at the nominal speed below.
//
// The reference is standard library only, so that no change to the
// repository can move it: two goroutines handing an int back and forth
// over unbuffered channels (scheduler wake-ups, what mailboxes cost) and
// two goroutines ping-ponging 64 bytes over a loopback TCP connection
// (syscalls and the netpoller, what wire costs).

import (
	"fmt"
	"math"
	"net"
	"time"
)

const (
	// refBurst is how long each of the two kernels runs per measurement
	// (the smoke test runs them shorter).
	refBurst = 75 * time.Millisecond
	// Nominal rates: what the two kernels reach on this builder when the
	// host is quiet. They only fix the unit; a different machine shifts
	// every adjusted metric by one constant factor.
	refChanNominal = 2.1e6   // channel round trips per second
	refTCPNominal  = 122.0e3 // loopback TCP round trips per second
)

// hostRef holds the loopback connection the TCP kernel runs over.
type hostRef struct {
	burst  time.Duration // per kernel and measurement
	ln     net.Listener
	client net.Conn
	echoed chan struct{} // closed when the echo goroutine has ended
}

func openHostRef(burst time.Duration) (*hostRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("host reference: %w", err)
	}
	h := &hostRef{burst: burst, ln: ln, echoed: make(chan struct{})}
	go func() {
		defer close(h.echoed)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	if h.client, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-h.echoed
		return nil, fmt.Errorf("host reference: %w", err)
	}
	return h, nil
}

func (h *hostRef) close() {
	h.client.Close()
	h.ln.Close()
	<-h.echoed
}

// chanRate is the channel kernel: round trips per second over d.
func chanRate(d time.Duration) float64 {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
	}()
	n, t0 := 0, time.Now()
	for time.Since(t0) < d {
		for i := 0; i < 128; i++ {
			ping <- n
			n = <-pong + 1
		}
	}
	rate := float64(n) / time.Since(t0).Seconds()
	close(ping)
	return rate
}

// tcpRate is the loopback kernel: round trips per second over d.
func (h *hostRef) tcpRate(d time.Duration) (float64, error) {
	buf := make([]byte, 64)
	n, t0 := 0, time.Now()
	for time.Since(t0) < d {
		if _, err := h.client.Write(buf); err != nil {
			return 0, fmt.Errorf("host reference: %w", err)
		}
		if _, err := h.client.Read(buf); err != nil {
			return 0, fmt.Errorf("host reference: %w", err)
		}
		n++
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}

// speed measures the host once: the geometric mean of the two kernels'
// rates over their nominal rates. 1 is the quiet builder; 0.7 means the
// same work takes 1/0.7 times as long right now.
func (h *hostRef) speed() (float64, error) {
	tcp, err := h.tcpRate(h.burst)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(chanRate(h.burst) / refChanNominal * tcp / refTCPNominal), nil
}
