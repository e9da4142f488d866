package core

import (
	"errors"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"indiss/internal/events"
	"indiss/internal/simnet"
)

// countingUnit counts Stop calls — the observable for the double-Close
// regression: however many times callers Close the system, the shutdown
// sequence must run exactly once.
type countingUnit struct {
	sdp   SDP
	stops atomic.Int32
}

func (u *countingUnit) SDP() SDP                     { return u.sdp }
func (u *countingUnit) Start(ctx *UnitContext) error { return nil }
func (u *countingUnit) HandleNative(det Detection)   {}
func (u *countingUnit) OnEvents(env events.Envelope) {}
func (u *countingUnit) SetReadvertise(enabled bool)  {}
func (u *countingUnit) Stop()                        { u.stops.Add(1) }

// errCloser is a plane closer that fails, and counts how often it is
// asked to.
type errCloser struct {
	err    error
	closes atomic.Int32
}

func (c *errCloser) Close() error {
	c.closes.Add(1)
	return c.err
}

// TestSystemCloseIdempotent is the regression test for the gateway
// binary's double-Close path (a deferred Close plus the explicit
// shutdown-sequence Close on SIGTERM): the second call must be a no-op
// that reports the first call's error, and no component may be stopped
// twice.
func TestSystemCloseIdempotent(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	host := n.MustAddHost("gw", "10.0.0.9")

	unit := &countingUnit{sdp: SDPSLP}
	reg := NewRegistry()
	reg.Register(SDPSLP, func() Unit { return unit })

	wantErr := errors.New("query plane failed to drain")
	qp := &errCloser{err: wantErr}
	sys, err := NewSystem(host, reg, Config{
		Role:   RoleGateway,
		Units:  []SDP{SDPSLP},
		Planes: []Plane{{Kind: PlaneQuery, Start: func(*System) (io.Closer, error) { return qp, nil }}},
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}

	if err := sys.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("first Close = %v, want the query plane's %v", err, wantErr)
	}
	if err := sys.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("second Close = %v, want the first call's error %v", err, wantErr)
	}
	if got := unit.stops.Load(); got != 1 {
		t.Errorf("unit stopped %d times across two Close calls, want exactly 1", got)
	}
	if got := qp.closes.Load(); got != 1 {
		t.Errorf("query plane closed %d times, want exactly 1", got)
	}
}

// TestSystemCloseConcurrent races many Close calls: all must return the
// same first error and the sequence must still run once. This is the
// shape a real SIGTERM produces — the signal handler and the deferred
// cleanup close from different goroutines.
func TestSystemCloseConcurrent(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	host := n.MustAddHost("gw", "10.0.0.9")

	unit := &countingUnit{sdp: SDPUPnP}
	reg := NewRegistry()
	reg.Register(SDPUPnP, func() Unit { return unit })

	wantErr := errors.New("peering teardown error")
	fed := &errCloser{err: wantErr}
	sys, err := NewSystem(host, reg, Config{
		Role:   RoleGateway,
		Units:  []SDP{SDPUPnP},
		Planes: []Plane{{Kind: PlaneFederation, Start: func(*System) (io.Closer, error) { return fed, nil }}},
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = sys.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, wantErr) {
			t.Errorf("caller %d: Close = %v, want %v", i, err, wantErr)
		}
	}
	if got := unit.stops.Load(); got != 1 {
		t.Errorf("unit stopped %d times across %d concurrent Close calls, want exactly 1", got, callers)
	}
	if got := fed.closes.Load(); got != 1 {
		t.Errorf("federation closed %d times, want exactly 1", got)
	}
}

// orderCloser records its name into a shared log when closed.
type orderCloser struct {
	name string
	log  *[]string
}

func (c *orderCloser) Close() error {
	*c.log = append(*c.log, c.name)
	return nil
}

// TestPlanesStartInOrderCloseInReverse: planes start in list order —
// a later plane already sees the earlier ones through the accessors —
// and close in reverse, each accessor answering its own kind.
func TestPlanesStartInOrderCloseInReverse(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	host := n.MustAddHost("gw", "10.0.0.9")

	var started, closed []string
	plane := func(kind PlaneKind) Plane {
		return Plane{Kind: kind, Start: func(s *System) (io.Closer, error) {
			started = append(started, string(kind))
			return &orderCloser{name: string(kind), log: &closed}, nil
		}}
	}
	pred := plane(PlanePredict)
	start := pred.Start
	pred.Start = func(s *System) (io.Closer, error) {
		if s.Federation() == nil || s.QueryPlane() == nil {
			t.Error("predict started before the planes it observes")
		}
		return start(s)
	}
	sys, err := NewSystem(host, NewRegistry(), Config{
		Role:   RoleGateway,
		Planes: []Plane{plane(PlaneFederation), plane(PlaneQuery), pred},
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	for kind, got := range map[PlaneKind]io.Closer{
		PlaneFederation: sys.Federation(),
		PlaneQuery:      sys.QueryPlane(),
		PlanePredict:    sys.Predictor(),
	} {
		if c, ok := got.(*orderCloser); !ok || c.name != string(kind) {
			t.Errorf("accessor for %s returned %v", kind, got)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"federation", "query plane", "predict"}; !reflect.DeepEqual(started, want) {
		t.Errorf("start order %v, want %v", started, want)
	}
	if want := []string{"predict", "query plane", "federation"}; !reflect.DeepEqual(closed, want) {
		t.Errorf("close order %v, want %v", closed, want)
	}
	if sys.Federation() != nil || sys.QueryPlane() != nil || sys.Predictor() != nil {
		t.Error("accessors still answer after Close")
	}
}
