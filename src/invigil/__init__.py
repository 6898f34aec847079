"""Deterministic replay engine for online-exam proctoring logs.

Feed it a session log of timestamped sensor events (object detections,
face embeddings, audio windows) and it emits a report of cheating
flags: absence, impostor, extra persons, phone or laptop use, speech.
Ships with a scenario simulator, a small numpy voice classifier, and
evaluation harnesses for detections and flags.
"""
