package main

// defaultSeed is the seed the stored reference digests were recorded at.
const defaultSeed = 1

// referenceDigests are each workload's verdict digest at defaultSeed:
// the VerdictDigest of one fleet run over the cohort. wire-auth equals
// an in-process run over a reliable channel, which the benchmark checks
// at every seed.
var referenceDigests = map[string]string{
	"cohort-host":   "48fe09cceaae91c0efcc3be82a98e36d9744ae6e29277eb9c0f993e598922418",
	"cohort-device": "48fe09cceaae91c0efcc3be82a98e36d9744ae6e29277eb9c0f993e598922418",
	"wire-auth":     "cb869ae6e807699af408249ad8da159bfd9bffb3168d2096dc385dff0850f64a",
}
