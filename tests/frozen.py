"""Frozen oracle constants and recorded verification outputs.

Every constant here was produced by a 60-digit mpmath evaluation and
rounded to the nearest binary64; test_frozen.py re-derives each one and
fails if a literal drifts.  The VERIFY_* records at the end are outputs of
seeded verify_theorem runs, and POLYGON_BLOCK_DRAWS hashes of seeded
polygon_blocks draws; test_frozen.py re-runs them, so a change to the
random streams, to the polygon rule, or to one bit of a VERIFY_BITS_*
margin, fails there.
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
# violations, worst_margin hex, equality_abs_error hex).  The counts are those
# of the per-draw implementation that the block evaluation replaced; the
# floats are those of the numpy-ufunc kernels under numpy 2.4.  Where they
# depend on the SIMD target numpy dispatches (cli.simd_target()), a dict
# pins them per target: X86_V4 (AVX-512), and baseline(X86_V2), which an
# X86_V3 (AVX2) machine reports too and matches
VERIFY_BITS_1_3 = (dict(theorem_id="1.3", n=192, radius_range=(1e-3, 15.0), trials=300, seed=7),
                   262, 38, 0, "0x1.9078c00000000p-24", "0x0.0p+0")
VERIFY_BITS_1_4 = (dict(theorem_id="1.4", n=192, radius_range=(1e-3, 15.0), trials=300, seed=7),
                   300, 0, 0, "0x1.cf510d9f4c000p-20", "0x1.0000000000000p-43")
# n=3, where 180 of the 500 partitions are redrawn on their own stream
VERIFY_BITS_1_2 = (dict(theorem_id="1.2", n=3, trials=500, seed=7),
                   500, 0, 0, "0x1.66883d7ae4000p-12", "0x0.0p+0")
VERIFY_BITS_1_10 = (dict(theorem_id="1.10", n=12, k=5, trials=500, seed=7),
                    60, 440, 0, {"X86_V4": "0x1.7f04f71181200p-4", "baseline(X86_V2)": "0x1.7f04f71181000p-4"},
                    "0x1.0000000000000p-45")
# the split path through each defining quantity the kernel converts from:
# circumradius (1.5), inradius (1.8) and interior angle (1.9); side is 1.10
VERIFY_BITS_1_5 = (dict(theorem_id="1.5", n=192, k=5, trials=500, seed=7),
                   500, 0, 0, "0x1.4483c302a4200p-3", "0x0.0p+0")
VERIFY_BITS_1_8 = (dict(theorem_id="1.8", n=3, k=5, trials=500, seed=7),
                   458, 42, 0, "0x1.a9d2e992f5e00p-6", "0x1.0000000000000p-51")
VERIFY_BITS_1_9 = (dict(theorem_id="1.9", n=12, k=2, trials=500, seed=7),
                   425, 75, 0, "0x1.a35f27f180000p-13", "0x0.0p+0")

# sha256 of the draws on streams 0 .. count-1 of DEFAULT_SEED in the
# window _radius_window(kind, n, window), of polygon_blocks with redraw, and
# without redraw of verify's _polygon_walk on the one group: the ideal-row
# flags as bytes (none with redraw), then the float64 bytes (little-endian)
# of the radii and of the apex angles of the rows that are not ideal.  Recorded
# while the rows a block read left unsettled were still replayed by the
# scalar draws, in windows where that happened (the cyclic and tangential
# 3-gons at (0.05, 3.0) and (0.1, 2.0), the tangential 6-gon there, and
# the tangential 3-gon in (0.4, 0.6), capped just below its ideal-vertex
# limit): the one polygon rule now decides the draws and the references
# alike, so only a record can show a drift in it.
# (kind, n, window, redraw, count, sha256)
POLYGON_BLOCK_DRAWS = (
    ("cyclic", 3, (0.05, 3.0), True, 3000,
     "8ac1ab591430b068a6dca0a5f1d18c98a06de8cb6c98f54f064501bf8988c94a"),
    ("cyclic", 3, (0.05, 3.0), False, 3000,
     "8ac1ab591430b068a6dca0a5f1d18c98a06de8cb6c98f54f064501bf8988c94a"),
    ("cyclic", 6, (0.05, 3.0), True, 3000,
     "45be5d8ce85cca81a96e2de1bab18b408018922ad08c65a1aed39a2f1d458203"),
    ("cyclic", 6, (0.05, 3.0), False, 3000,
     "45be5d8ce85cca81a96e2de1bab18b408018922ad08c65a1aed39a2f1d458203"),
    ("cyclic", 192, (0.05, 3.0), True, 400,
     "3ec8be799247f1668cfebd9b7553139ca795165a3f593b3a6821052a40aca0bd"),
    ("cyclic", 192, (0.05, 3.0), False, 400,
     "3ec8be799247f1668cfebd9b7553139ca795165a3f593b3a6821052a40aca0bd"),
    ("tangential", 3, (0.05, 3.0), True, 3000,
     "fc3acb383df36c9d28f7d9c6d8cfea2d9ecf4bd96b59994d12641fb508a31c6c"),
    ("tangential", 3, (0.05, 3.0), False, 3000,
     "53c658df5934f197b3c405ebcb1d2ec2072e5a3b2ed59e4dc124cc66d9fc6134"),
    ("tangential", 6, (0.05, 3.0), True, 3000,
     "a5c44350e58725e939d4dd21f493d087a550dce5cb95f0bbd63385aadf9bbcbd"),
    ("tangential", 6, (0.05, 3.0), False, 3000,
     "762dfd69c851b14170e80a058b10084c4d4d8cbfec8c8c458f13f80ed13afae9"),
    ("tangential", 192, (0.05, 3.0), True, 400,
     "3ec8be799247f1668cfebd9b7553139ca795165a3f593b3a6821052a40aca0bd"),
    ("tangential", 192, (0.05, 3.0), False, 400,
     "3ec8be799247f1668cfebd9b7553139ca795165a3f593b3a6821052a40aca0bd"),
    ("cyclic", 3, (0.1, 2.0), True, 3000,
     "8183e1d5448d1e7873b69e10950e23c7bf442e142cdc44277fc5ec9b633293a0"),
    ("cyclic", 3, (0.1, 2.0), False, 3000,
     "8183e1d5448d1e7873b69e10950e23c7bf442e142cdc44277fc5ec9b633293a0"),
    ("cyclic", 6, (0.1, 2.0), True, 3000,
     "1a9c2a37595385ee260906e7aa9d0145b782ce232e565d0c31a6eef611237ddc"),
    ("cyclic", 6, (0.1, 2.0), False, 3000,
     "1a9c2a37595385ee260906e7aa9d0145b782ce232e565d0c31a6eef611237ddc"),
    ("cyclic", 192, (0.1, 2.0), True, 400,
     "47f64cbf390905d8919ada5c7cfdd5f57b3c570253567882cfc0577ec6dcfaec"),
    ("cyclic", 192, (0.1, 2.0), False, 400,
     "47f64cbf390905d8919ada5c7cfdd5f57b3c570253567882cfc0577ec6dcfaec"),
    ("tangential", 3, (0.1, 2.0), True, 3000,
     "bf2c80312db579f42bfbbd8040a4d8260e6811ed9899292a5f625c8b93166179"),
    ("tangential", 3, (0.1, 2.0), False, 3000,
     "4238ba56f85dbe5cd3ba753e3a69c975c353d474f645e198bf9a75c4e37efd0b"),
    ("tangential", 6, (0.1, 2.0), True, 3000,
     "a61a833da504d2d1038dad5279cc1489d04e770d12711f9a42d0e546f1fc0738"),
    ("tangential", 6, (0.1, 2.0), False, 3000,
     "340ddb083543f2337b2366a9aba81fdb24b733536d06a8140b26ef2592ed699d"),
    ("tangential", 192, (0.1, 2.0), True, 400,
     "47f64cbf390905d8919ada5c7cfdd5f57b3c570253567882cfc0577ec6dcfaec"),
    ("tangential", 192, (0.1, 2.0), False, 400,
     "47f64cbf390905d8919ada5c7cfdd5f57b3c570253567882cfc0577ec6dcfaec"),
    ("tangential", 3, (0.4, 0.6), True, 3000,
     "e00965a7c1917faf5a3f532adec0c21402a2c0e824a3e313e6ba35d0f2c28d4a"),
    ("tangential", 3, (0.4, 0.6), False, 3000,
     "d3711ce07b3a34b7f3100c601a58409204debc7271411f23a678a4cdfc3265a4"),
)
