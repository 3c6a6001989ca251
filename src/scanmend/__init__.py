"""scanmend: unpaired point-cloud completion.

Point-set autoencoders define latent manifolds of partial and complete
shapes; a small adversarial network maps partial codes to complete codes.
Everything runs on numpy; shapes come from a procedural scan synthesizer.
Import each name from the module that defines it (scanmend.pointset,
scanmend.gan, ...); the package itself exports only __version__.
"""

__version__ = "0.1.0"
