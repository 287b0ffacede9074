#!/bin/sh
# Pre-PR gate: vet, build, and race-test the whole module.
# Run from anywhere inside the repository.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
echo "== go test -race -short ./..."
go test -race -short ./...
echo "== go test -race ./internal/cloud/..."
go test -race -count=1 ./internal/cloud/...
echo "== streaming-batch race gate"
go test -race -count=2 -run 'TestStreamingBatchRace|TestFetchDuringReEncryptNoRace' ./internal/cloud/
echo "== storage race gate: crash recovery + cross-owner mixed traffic"
go test -race -count=2 -run 'TestFileStoreCrashRecovery|TestStoreMixedRace' ./internal/cloud/
echo "== group-commit race gate: concurrent writers + kill-at-any-point"
go test -race -count=2 -run 'TestFileStoreGroupCommit|TestFileStoreKillAnywhere' ./internal/cloud/
echo "== WAL fault-injection gate: append faults, compaction faults"
go test -count=1 -run 'TestFileStoreAppendFaultTruncates|TestFileStoreCompactFault|TestFileStoreCompactionCrashBeforeDelete' ./internal/cloud/
echo "== cloud suite on the file backend (MAACS_STORE=file)"
MAACS_STORE=file go test -count=1 ./internal/cloud/
echo "== load-smoke gate: open-loop harness vs live server, both transports"
go test -race -count=1 -run 'TestMeasureLoadSmoke' ./internal/bench/
echo "== response-cache gate: byte differential + stale-generation hammer (race)"
go test -race -count=2 -run 'TestResponseCacheDifferentialBytes|TestResponseCacheStaleGenerationHammer|TestResponseCacheSingleFlight' ./internal/cloud/
echo "== response-cache alloc pin: zero-alloc steady-state hit path (race off: AllocsPerRun)"
go test -count=1 -run 'TestResponseCacheZeroAllocHit' ./internal/cloud/
echo "== fetchpath bench smoke: cached vs uncached read path"
go test -count=1 -run 'TestMeasureFetchPathSmoke' ./internal/bench/
echo "== histogram-exposition lint: /metrics le-buckets well formed"
go test -count=1 -run 'TestPrometheusHistogram' ./internal/cloud/
echo "== go test -race ./internal/pairing"
go test -race -count=1 ./internal/pairing
echo "== table/comb differential race gate: FixedBaseExp/ExpTable vs the reference oracle"
go test -race -count=2 -run 'TestTableExp|TestFixedBaseExp|TestPrepareExpMatchesExp|TestScalarNormalization' ./internal/pairing
go test -race -count=2 -run 'TestExpCache' ./internal/engine
echo "== alloc pins: comb evaluation + field primitives (race off: AllocsPerRun)"
go test -count=1 -run 'TestCombExpMontAllocs|TestHotPathZeroBigIntAllocs' ./internal/pairing
echo "== bench smoke: pairing kernel vs reference oracle"
go test -run=NoTests -bench=Pair -benchtime=1x ./internal/pairing
echo "== fuzz smoke: every public pairing operation vs the reference oracle"
go test -run=NoTests -fuzz=FuzzPairOracle -fuzztime=5s ./internal/pairing
echo "== fuzz smoke: Montgomery field vs math/big"
go test -run=NoTests -fuzz=FuzzFpMontgomery -fuzztime=5s ./internal/pairing
echo "== fuzz smoke: Lehmer inversion vs Fermat and ModInverse"
go test -run=NoTests -fuzz=FuzzFpInvLehmer -fuzztime=5s ./internal/pairing
echo "== OK"
