package topk

// FloorBoard has no cells and no methods: it is only the type of
// shard.Worker.Query's always-nil board parameter (see shard.Worker for why
// that parameter remains).
type FloorBoard struct{}
