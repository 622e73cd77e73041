package edge

// NewCoreFS is NewCore on a chosen WAL filesystem, for the storage-fault
// tests.
var NewCoreFS = newCore
