// Package hostcpu reports the vector instructions the host CPU offers,
// read once at start-up, for the packages that carry assembly loops.
package hostcpu
