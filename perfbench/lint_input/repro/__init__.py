"""repro — compliance-aware digital forensics framework.

A full reproduction of *When Digital Forensic Research Meets Laws*
(Huang, Ling, Xiang, Wang & Fu, ICDCS 2012 Workshops) as a working Python
system:

* :mod:`repro.core` — the paper's legal framework as an executable
  compliance engine (Fourth Amendment, Wiretap Act, SCA, Pen/Trap statute,
  the Katz privacy test, and all of section III.B's exceptions), the
  twenty Table 1 scenes, and the Section IV research advisor.
* :mod:`repro.netsim` — discrete-event network simulator with layered
  packets, ISPs, wireless media, and capability-typed sniffers.
* :mod:`repro.anonymity` — Tor-like onion circuits, an Anonymizer-like
  proxy, and a OneSwarm-like anonymous P2P overlay.
* :mod:`repro.techniques` — the investigative techniques the paper
  analyzes: the timing attack (IV.A), the long-PN-code DSSS flow
  watermark (IV.B), baselines, hash search, and data mining.
* :mod:`repro.storage` — block devices, a recoverable filesystem, and an
  SCA-aware mail store.
* :mod:`repro.evidence` / :mod:`repro.court` / :mod:`repro.investigation`
  — chain of custody, magistrates, suppression hearings, and end-to-end
  investigation pipelines.
"""

__version__ = "1.0.0"
