"""Scratch: ../pr16/pairs.py between two named checkouts instead of
/root/scratch/parent and /root/repo (the 256-subscription copies and the
ablation copies).  Usage: pairs_at.py A_CHECKOUT B_CHECKOUT OUTDIR FIRST_SEED
PAIRS WORKLOAD..."""
import pathlib, sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "pr16"))
import pairs

pairs.PARENT, pairs.CHANGE = sys.argv[1], sys.argv[2]
sys.argv[1:] = sys.argv[3:]
pairs.main()
