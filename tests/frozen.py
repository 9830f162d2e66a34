"""Frozen oracle constants and recorded verification outputs.

Every constant here was produced by a 60-digit mpmath evaluation and
rounded to the nearest binary64; test_frozen.py re-derives each one and
fails if a literal drifts.  The VERIFY_* records at the end are outputs of
seeded verify_theorem runs; test_frozen.py re-runs them, so a change to the
random streams, or to one bit of a VERIFY_BITS_* margin, fails there.
Package code must never import this module.
"""

# plain inverse-function values
ACOSH_2 = 1.3169578969248168
ACOSH_3 = 1.762747174039086
ACOSH_6 = 2.477888730288475
ASINH_1 = 0.881373587019543
ASINH_2 = 1.4436354751788103
ATANH_HALF = 0.5493061443340549

# equality-case anchors
FOUR_LN3 = 4.394449154672439
EIGHT_LN3 = 8.788898309344878
TWELVE_LN_SILVER = 10.576483044234516
TWENTYFOUR_LN_SILVER = 21.152966088469032
FOUR_PI = 12.566370614359172
EIGHT_PI = 25.132741228718345

# largest finite-vertex inradius asinh(cot(pi/n)); equals acosh(1/sin(pi/n))
RMAX_3 = 0.5493061443340549
RMAX_4 = 0.881373587019543
RMAX_6 = 1.3169578969248168
RMAX_12 = 2.027589421800132

# circumradius where acot(tan(pi/n) cosh R) inflects: acosh(sqrt(2 + cot^2(pi/n)))
THM7_STAR_4 = 1.1462158347805889
THM7_STAR_6 = 1.4436354751788103
THM7_STAR_12 = 2.0611144490883837

# per-polygon admissibility thresholds
THM9_AREA_THR_4 = 1.7083143455699046
THM9_AREA_THR_6 = 3.141592653589793
THM9_THETA_THR_4 = 1.1437177404024206
THM9_THETA_THR_6 = 1.5707963267948966
THM10_PERI_THR_4 = 6.114283677923993
THM10_PERI_THR_6 = 7.9017473815489

# regular hexagon with circumradius asinh 2
HEX_R_ASINH2_r = 1.0317185344477802
HEX_R_ASINH2_theta = 1.318116071652818
HEX_R_ASINH2_area = 4.657674184442265

# regular hexagon with interior angle 1
HEX_THETA1_PERI = 14.36596359753766
HEX_THETA1_AREA = 6.566370614359173

# right triangle with legs b = 5/4, c = 3/4
TRI_A = 1.5424348990547427
TRI_B = 0.80094037059891
TRI_C = 0.3774790456641362

# log-space hypotenuse branch
HYP_25_25 = 49.30685281944005
HYP_300_250 = 549.3068528194401

# printed inradius expression vs the tanh r = cos(pi/n) tanh R reference, n=6, R=1
COR1_6_1 = 1.0852623510847577
REF_R_6_1 = 0.7920342426699567

# chord between point_at(0.8, 0) and point_at(0.8, 1.1)
CHORD_08_11 = 0.897931746914749

# spot values of the closed forms at n=6, R=1
THM2_6_1 = 6.697961514139274
THM4_6_1 = 2.4499774582252702

# sector-function anchor: asinh(sin(pi/6) sinh(asinh 2))
CHS_PI3_ASINH2 = 0.881373587019543

# verify_theorem(**args) outputs: (args, asserted, skipped, worst_margin hex)
VERIFY_1_2 = (dict(theorem_id="1.2", n=12, trials=500, seed=7), 500, 0, "0x1.91044ffddea00p-9")
VERIFY_1_8 = (dict(theorem_id="1.8", n=6, k=3, trials=500, seed=7), 480, 20, "0x1.022a87f38e000p-9")
# a tangential bound at n=3, where most draws have an ideal vertex and are skipped
VERIFY_1_1 = (dict(theorem_id="1.1", n=3, trials=500, seed=7), 154, 346, "0x1.8693c986a0400p-9")
# a guarded split, where draws with a component below the area threshold are skipped
VERIFY_1_9 = (dict(theorem_id="1.9", n=6, k=3, trials=500, seed=7), 285, 215, "0x1.2641c6e954800p-6")

# verify_theorem(**args) outputs with every bit pinned: (args, asserted, skipped,
# violations, worst_margin hex, equality_abs_error hex), recorded from the
# per-draw implementation that the block evaluation replaced
VERIFY_BITS_1_3 = (dict(theorem_id="1.3", n=192, radius_range=(1e-3, 15.0), trials=300, seed=7),
                   262, 38, 0, "0x1.9078c00000000p-24", "0x0.0p+0")
VERIFY_BITS_1_4 = (dict(theorem_id="1.4", n=192, radius_range=(1e-3, 15.0), trials=300, seed=7),
                   300, 0, 0, "0x1.cf510d9f4c000p-20", "0x1.0000000000000p-43")
# n=3, where 180 of the 500 partitions are redrawn on their own stream
VERIFY_BITS_1_2 = (dict(theorem_id="1.2", n=3, trials=500, seed=7),
                   500, 0, 0, "0x1.66883d7ae4000p-12", "0x0.0p+0")
VERIFY_BITS_1_10 = (dict(theorem_id="1.10", n=12, k=5, trials=500, seed=7),
                    60, 440, 0, "0x1.7f04f71181400p-4", "0x1.0000000000000p-46")
# the split path through each defining quantity the kernel converts from:
# circumradius (1.5), inradius (1.8) and interior angle (1.9); side is 1.10
VERIFY_BITS_1_5 = (dict(theorem_id="1.5", n=192, k=5, trials=500, seed=7),
                   500, 0, 0, "0x1.4483c302a4200p-3", "0x0.0p+0")
VERIFY_BITS_1_8 = (dict(theorem_id="1.8", n=3, k=5, trials=500, seed=7),
                   458, 42, 0, "0x1.a9d2e992f5e00p-6", "0x1.0000000000000p-51")
VERIFY_BITS_1_9 = (dict(theorem_id="1.9", n=12, k=2, trials=500, seed=7),
                   425, 75, 0, "0x1.a35f27f180000p-13", "0x0.0p+0")
