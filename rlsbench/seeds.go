package main

import "hash/fnv"

// deriveSeed maps (workload seed, stream tag, index) to an independent
// 64-bit seed: FNV-1a of the tag, mixed with the seed and index through
// splitmix64. Every input the benchmark builds is drawn from a seed made
// here, so one --seed fixes every input of a run.
func deriveSeed(seed uint64, tag string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	x := h.Sum64() ^ seed*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
