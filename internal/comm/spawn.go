package comm

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"
)

// spawn.go is the TCP fleet bring-up shared by the CLIs: one call builds
// and establishes this process's endpoint and, under -spawn-local, has the
// rank-0 parent re-exec itself as ranks 1..N-1 of a loopback fleet,
// appending per-rank flag overrides (the stdlib flag parser takes the last
// occurrence, so the parent's own flags simply get overridden). The caller
// supplies the per-rank argv tail; this file owns process lifecycle —
// start, reap, kill — so the two CLIs cannot drift apart on it.

// JoinTCPFleet builds this process's endpoint of a TCP fleet from cfg and
// establishes it. With spawn, this process is rank 0 of a local fleet: it
// first forks ranks 1..N-1, appending childArgs(rank, registry) to each
// child's copy of this process's flags — registry is this endpoint's
// rendezvous address. Returns the established endpoint and the spawned
// children. What a signal does to them is the caller's choice
// (KillRanksOnSignal or StopRanks); a caller subscribes with NotifyStop
// before joining, so a signal during bring-up waits for it.
func JoinTCPFleet(cfg TCPConfig, spawn bool, childArgs func(rank int, registry string) []string) (*TCPTransport, []*exec.Cmd, error) {
	if spawn && cfg.Rank != 0 {
		return nil, nil, fmt.Errorf("-spawn-local is the rank-0 parent; it cannot run as rank %d", cfg.Rank)
	}
	tr, err := NewTCPTransport(cfg)
	if err != nil {
		return nil, nil, err
	}
	var children []*exec.Cmd
	if spawn {
		children, err = SpawnLocalRanks(cfg.N, func(r int) []string { return childArgs(r, tr.Addr()) })
		if err != nil {
			tr.Close()
			return nil, nil, err
		}
	}
	if err := tr.Establish(); err != nil {
		tr.Close()
		KillRanks(children)
		return nil, nil, err
	}
	return tr, children, nil
}

// SpawnLocalRanks forks ranks 1..n-1 of a local fleet as copies of the
// current executable. argsForRank returns the flags appended for one rank
// (after a copy of this process's own arguments). Children inherit
// stdout/stderr. On any start failure the already-started children are
// killed and the error returned.
func SpawnLocalRanks(n int, argsForRank func(rank int) []string) ([]*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var children []*exec.Cmd
	for r := 1; r < n; r++ {
		args := append(append([]string{}, os.Args[1:]...), argsForRank(r)...)
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			KillRanks(children)
			return nil, fmt.Errorf("spawn rank %d: %w", r, err)
		}
		children = append(children, cmd)
	}
	return children, nil
}

// KillRanks terminates and reaps spawned ranks.
func KillRanks(children []*exec.Cmd) {
	for _, c := range children {
		if c.Process != nil {
			c.Process.Kill()
			c.Wait()
		}
	}
}

// WaitRanks reaps spawned ranks and returns the joined errors of every
// rank that exited nonzero — the fleet is one run, and an operator
// debugging it needs all the failures, not just the first.
func WaitRanks(children []*exec.Cmd) error {
	var errs []error
	for _, c := range children {
		if err := c.Wait(); err != nil {
			errs = append(errs, fmt.Errorf("spawned rank failed: %w", err))
		}
	}
	return errors.Join(errs...)
}

// NotifyStop subscribes to SIGINT and SIGTERM. A parent calls it before it
// spawns ranks, so that a signal is held for its handler instead of
// killing the parent and orphaning the children.
func NotifyStop() <-chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return sig
}

// KillRanksOnSignal kills the spawned ranks and exits 1 once sig fires —
// a training run is one job, and an interrupted one has failed.
func KillRanksOnSignal(sig <-chan os.Signal, children []*exec.Cmd) {
	go func() {
		<-sig
		KillRanks(children)
		os.Exit(1)
	}()
}

// StopRanks asks spawned ranks to drain with SIGTERM and reaps them; a rank
// still running after timeout is killed. Exit statuses are not reported: a
// rank that died earlier (a crashed replica) is reaped like the others.
func StopRanks(children []*exec.Cmd, timeout time.Duration) {
	for _, c := range children {
		if c.Process.Signal(syscall.SIGTERM) != nil {
			c.Process.Kill()
		}
	}
	late := time.AfterFunc(timeout, func() {
		for _, c := range children {
			c.Process.Kill()
		}
	})
	defer late.Stop()
	for _, c := range children {
		c.Wait()
	}
}
