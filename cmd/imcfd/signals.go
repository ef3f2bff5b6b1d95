package main

import (
	"log"
	"os"
	"os/signal"
	"syscall"

	"github.com/imcf/imcf/internal/daemon"
)

// handleSignals subscribes to the daemon's signals before it returns,
// so none that arrives once the listeners are up is missed, and serves
// them from a goroutine. The first interrupt or SIGTERM (what a service
// manager or a plain kill sends) closes the daemon. SIGQUIT does not
// exit: it dumps a flight-recorder bundle — the on-demand "what is this
// process doing right now" snapshot (logs, spans, decisions, metrics,
// goroutines) — and keeps serving.
func handleSignals(d *daemon.Daemon) {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	go func() {
		for s := range sig {
			if s == syscall.SIGQUIT {
				dir, err := d.TriggerFlight("sigquit", "", "")
				if err != nil {
					log.Printf("flight recorder: %v", err)
					continue
				}
				log.Printf("flight bundle written to %s (read it with imcf-debug)", dir)
				continue
			}
			log.Print("shutting down")
			d.Close() //nolint:errcheck // exiting anyway
			return
		}
	}()
}
