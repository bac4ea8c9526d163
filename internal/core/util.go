package core

// queryGrain is the chunk size solver hot paths hand to the parallel worker
// pool for per-user and per-row loops: small enough to load-balance skewed
// walk lengths, large enough to amortize dispatch.
const queryGrain = 16
