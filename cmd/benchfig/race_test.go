//go:build race

package main

// raceBuild reports a -race build, under which regenerating every figure
// takes minutes instead of seconds.
const raceBuild = true
