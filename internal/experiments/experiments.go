// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) plus the extension studies from
// scenario-matrix cells. Every grid study is a matrix run by
// MatrixSweep: Table I (folded by TableI), Ext-A array-size scaling
// (INOR and EHTR on the array_sizes axis, compared by counted runtime),
// Ext-B horizon, Ext-C converter window (one INOR matrix per
// converter_input_v band), Ext-D predictors, Ext-E faults, Ext-F
// drive-trace seeds, Ext-G radiator bank and Ext-H switch margin, which
// `tegsim -study` and `tegfig -fig scaling` build and internal/report
// renders. The per-tick views read the same cells through RunCells: a
// single `tegsim -scheme` run is one Table I cell, and Figs. 6/7 cut
// their window out of the four Table I runs. Fig. 1 reads the module
// model and Fig. 5 a trace's true temperature sequence.
package experiments
