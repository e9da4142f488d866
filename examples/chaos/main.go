// Chaos: a campus partition mid-discovery, and the healing after.
//
// Two segments, one INDISS gateway each, federated over a routed link.
// A DNS-SD clock on segment 2 is discovered from segment 1 through the
// peering plane. Then the link is cut — a real partition, injected into
// the live fabric: the gateways' TCP session resets and the segments are
// on their own. While split, a second service appears on segment 2 and a
// first one is withdrawn; segment 1 can learn neither fact. On heal the
// peering re-establishes, digest repair on reconnect re-syncs the views,
// and the withdrawal tombstones stop the split-off gateway from
// resurrecting the dead record — the two halves agree again.
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"os"
	"time"

	"indiss"
	"indiss/internal/core"
	"indiss/internal/dnssd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

func run() error {
	// A two-building campus with one gateway per segment, peered.
	net := indiss.NewCampus(2)
	defer net.Close()
	gw1Host := net.MustAddHostOn("gw1", "10.0.1.9", indiss.CampusSegment(1))
	gw2Host := net.MustAddHostOn("gw2", "10.0.2.9", indiss.CampusSegment(2))
	svcHost := net.MustAddHostOn("services", "10.0.2.2", indiss.CampusSegment(2))

	gw1, err := indiss.Deploy(gw1Host, indiss.Config{
		Role: indiss.RoleGateway, GatewayID: "gw-1",
		Peers:                  []string{fmt.Sprintf("10.0.2.9:%d", indiss.FederationDefaultPort)},
		FederationPort:         indiss.FederationDefaultPort,
		FederationSyncInterval: 200 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer gw1.Close()
	gw2, err := indiss.Deploy(gw2Host, indiss.Config{
		Role: indiss.RoleGateway, GatewayID: "gw-2",
		FederationPort:         indiss.FederationDefaultPort,
		FederationSyncInterval: 200 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer gw2.Close()

	// A native DNS-SD clock appears in building 2…
	responder, err := dnssd.NewResponder(svcHost, dnssd.ResponderConfig{})
	if err != nil {
		return err
	}
	defer responder.Close()
	if err := responder.Register(dnssd.Registration{
		Instance: "Clock", Service: dnssd.ServiceType("clock"), Port: 9000, TTL: 30,
	}); err != nil {
		return err
	}
	// …and crosses the federation into building 1's view.
	if err := waitKind(gw1, "clock", 10*time.Second); err != nil {
		return fmt.Errorf("initial convergence: %w", err)
	}
	fmt.Println("building 1 discovered the building-2 clock through the federation")

	// CHAOS: the inter-building link goes down, live.
	if err := net.Partition(indiss.CampusSegment(1), indiss.CampusSegment(2)); err != nil {
		return err
	}
	fmt.Println("link cut — campus partitioned")

	// Life on segment 2 goes on: a lamp appears, the clock departs.
	if err := responder.Register(dnssd.Registration{
		Instance: "Lamp", Service: dnssd.ServiceType("lamp"), Port: 9100, TTL: 30,
	}); err != nil {
		return err
	}
	responder.Unregister("Clock", dnssd.ServiceType("clock"))
	if err := waitGone(gw2, "clock", 10*time.Second); err != nil {
		return fmt.Errorf("goodbye on seg2: %w", err)
	}
	lamp1 := len(gw1.View().Find("lamp", time.Now()))
	clock1 := len(gw1.View().Find("clock", time.Now()))
	fmt.Printf("while split, building 1 still believes: clock=%d lamp=%d (both wrong)\n", clock1, lamp1)

	// HEAL: the link returns; the peering reconnects and re-syncs.
	if err := net.Heal(indiss.CampusSegment(1), indiss.CampusSegment(2)); err != nil {
		return err
	}
	if err := waitKind(gw1, "lamp", 15*time.Second); err != nil {
		return fmt.Errorf("lamp never crossed after heal: %w", err)
	}
	if err := waitGone(gw1, "clock", 15*time.Second); err != nil {
		return fmt.Errorf("stale clock survived the heal: %w", err)
	}
	fmt.Println("records healed after partition: the lamp arrived and the dead clock stayed dead")
	return nil
}

func waitKind(sys *indiss.System, kind string, timeout time.Duration) error {
	return wait(sys, kind, timeout, func(n int) bool { return n > 0 })
}

func waitGone(sys *indiss.System, kind string, timeout time.Duration) error {
	return wait(sys, kind, timeout, func(n int) bool { return n == 0 })
}

func wait(sys *core.System, kind string, timeout time.Duration, ok func(int) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if ok(len(sys.View().Find(kind, time.Now()))) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("view of %q never reached the expected state", kind)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
