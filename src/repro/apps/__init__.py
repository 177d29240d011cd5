"""The paper's application suite (Sections V and VI-B), baseline + CC.

Every application is implemented twice over the same machine model:

* a **baseline** version compiled to scalar/Base_32 instruction streams
  (binary search, SIMD compares, word-at-a-time bitmap algebra, blocked
  x86-CLMUL, SIMD page copies); and
* a **Compute Cache** version redesigned around CC instructions exactly as
  Section VI-B describes (CAM-style ``cc_search`` dictionaries, in-L1 key
  search, ``cc_or`` over bitmap bins, broadcast ``cc_clmul`` BMM, and
  ``cc_copy`` copy-on-write checkpointing).

Beyond the paper's four, :mod:`~repro.apps.qdnn` adds the Neural Cache
follow-on workload (quantized DNN inference lowered to the bit-serial
arithmetic tier: ``cc_mul`` / ``cc_add`` / ``cc_reduce``) and
:mod:`~repro.apps.crypto` adds the cryptographic suite — GHASH/GCM
authentication, CRC32/CRC64 folding, and a negacyclic NTT-style
polynomial multiply — lowered onto ``cc_clmul`` broadcast folds and the
arithmetic tier, with every output verified against standard references.

Both versions run for real - outputs are verified against pure-Python/numpy
references - while the machine accounts cycles and per-component energy.

Datasets the paper used but we cannot ship (a 10/50 MB text corpus, the
STAR physics index, SPLASH-2) are replaced by seeded synthetic generators
preserving the characteristics that drive the results: word-frequency skew
(:mod:`~repro.apps.textgen`), bin cardinalities
(:mod:`~repro.apps.bitmap_db`), and per-benchmark dirty-page profiles
(:mod:`~repro.apps.splash`).
"""

from .common import AppResult
from .wordcount import run_wordcount
from .stringmatch import run_stringmatch
from .bitmap_db import run_bitmap_queries
from .bmm import run_bmm
from .checkpoint import run_checkpoint
from .crypto import run_crypto
from .qdnn import run_qdnn
from .streambw import run_streambw

__all__ = [
    "AppResult",
    "run_wordcount",
    "run_stringmatch",
    "run_bitmap_queries",
    "run_bmm",
    "run_checkpoint",
    "run_crypto",
    "run_qdnn",
    "run_streambw",
]
