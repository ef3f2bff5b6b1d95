package store

import "github.com/imcf/imcf/internal/metrics"

// Canonical metric families of the storage engine. Declared here so the
// metrics-hygiene lint rule can verify every family is observed
// somewhere in the package.
var (
	// walAppends counts records appended to the write-ahead log.
	walAppends = metrics.NewCounter("imcf_store_wal_appends_total",
		"Records appended to the write-ahead log (puts and probes).")

	// walBytes accumulates bytes appended to the log.
	walBytes = metrics.NewFloatCounter("imcf_store_wal_bytes_total",
		"Bytes appended to the write-ahead log.")

	// storeCompactions counts snapshot compactions.
	storeCompactions = metrics.NewCounter("imcf_store_compactions_total",
		"Snapshot compactions performed.")

	// walFsyncs counts WAL fsyncs. With group commit one fsync can ack
	// many writers, so walFsyncs/walAppends is the batching win.
	walFsyncs = metrics.NewCounter("imcf_store_fsyncs_total",
		"WAL fsyncs issued (one per group-commit flush).")

	// fsyncSeconds is the latency of each WAL fsync.
	fsyncSeconds = metrics.NewHistogram("imcf_store_fsync_seconds",
		"WAL fsync latency in seconds.", nil)

	// groupBatchSize is the number of writers acknowledged per
	// group-commit flush.
	groupBatchSize = metrics.NewHistogram("imcf_store_group_commit_batch_size",
		"Writers acknowledged together per group-commit flush.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
)
