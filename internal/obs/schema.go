package obs

// SchemaVersion versions every JSON document the repository emits — CLI
// reports, threshold curves, run manifests. Consumers should check it
// before relying on field shapes; producers source it from here and nowhere
// else, so a bump is one edit.
//
// History:
//
//	1 — first versioned schema: synthesis reports, threshold curve
//	    documents, BENCH_decode comparisons and run manifests all gained
//	    a schema_version field in the observability PR.
const SchemaVersion = 1
